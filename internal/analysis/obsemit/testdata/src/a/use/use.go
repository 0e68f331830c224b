// Package use is golden testdata for instrumentation call sites
// outside the observability package.
package use

import (
	"fmt"
	"hash/fnv"

	"a/internal/obs"
)

// Alias mirrors the facade's `type Observer = obs.Observer`.
type Alias = obs.Observer

func Raw(o obs.Observer, ev obs.Event) {
	o.Event(ev) // want `raw Observer.Event call bypasses panic isolation`
}

func RawAlias(o Alias, ev obs.Event) {
	o.Event(ev) // want `raw Observer.Event call bypasses panic isolation`
}

func Wrapped(o obs.Observer, ev obs.Event) {
	obs.Emit(o, ev)
}

func Allowed(o obs.Observer, ev obs.Event) {
	o.Event(ev) //contender:allow obsemit -- golden test: this call site proves the escape hatch
}

// recorder's Event method shares the name but not the interface; other
// Event methods must not be flagged.
type recorder struct{ n int }

func (r *recorder) Event(ev obs.Event) { r.n++ }

func Concrete(r *recorder, ev obs.Event) {
	r.Event(ev)
}

// Options models a campaign config that carries an observer.
type Options struct {
	Seed     int64
	MPLs     []int
	Observer obs.Observer
}

func digest(vs ...any) string { return fmt.Sprint(vs...) }

func campaignFingerprint(o Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d|mpls=%v", o.Seed, o.MPLs)
	_ = digest(o)  // want `value of type a/use.Options carries observer state`
	_ = o.Observer // want `observer state \(a/internal/obs.Observer\) must not reach the checkpoint fingerprint`
	return digest(h.Sum64())
}

// report is not a fingerprint function: observer state may flow here.
func report(o Options) string {
	return digest(o.Observer)
}
