// Package sim is golden testdata modeling a deterministic collection
// package (its import path ends in internal/sim, putting it in scope).
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"a/internal/obs"
)

func Clocks() time.Duration {
	t0 := time.Now()      // want `call to time.Now breaks the deterministic-collection invariant`
	_ = time.Since(t0)    // want `call to time.Since breaks the deterministic-collection invariant`
	return time.Until(t0) // want `call to time.Until breaks the deterministic-collection invariant`
}

func MonoClock() time.Duration {
	t0 := obs.Mono()       // want `call to a/internal/obs.Mono breaks the deterministic-collection invariant`
	return obs.Mono() - t0 // want `call to a/internal/obs.Mono breaks the deterministic-collection invariant`
}

func GlobalRand() float64 {
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand.Shuffle draws from a shared nondeterministic stream`
	return rand.Float64()              // want `global math/rand.Float64 draws from a shared nondeterministic stream`
}

// SeededRand is the required idiom: a constructor-seeded stream.
func SeededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func Goroutines() int {
	return runtime.NumGoroutine() // want `call to runtime.NumGoroutine breaks the deterministic-collection invariant`
}

func Pid() int {
	return os.Getpid() // want `call to os.Getpid breaks the deterministic-collection invariant`
}

func MapToBuilder(m map[string]float64, b *strings.Builder) {
	for k := range m { // want `map iteration order is nondeterministic and this range writes to an output via WriteString`
		b.WriteString(k)
	}
}

func MapToHash(m map[string]int) uint64 {
	h := fnv.New64a()
	for k, v := range m { // want `map iteration order is nondeterministic and this range writes to an output via fmt.Fprintf`
		fmt.Fprintf(h, "%s=%d", k, v)
	}
	return h.Sum64()
}

// MapSorted is the required idiom: accumulate, sort, then emit.
func MapSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func AllowedSameLine() time.Time {
	return time.Now() //contender:allow nodeterminism -- golden test: wall clock feeds a span duration only
}

func AllowedLineAbove() time.Time {
	//contender:allow nodeterminism -- golden test: wall clock feeds a span duration only
	return time.Now()
}

// AllowedFuncDoc is observability-only; the doc-comment directive
// suppresses for the whole function.
//
//contender:allow nodeterminism -- golden test: whole function is observability-only
func AllowedFuncDoc() (time.Time, time.Duration) {
	t0 := time.Now()
	return t0, time.Since(t0)
}

func AllowedMono() time.Duration {
	start := obs.Mono()       //contender:allow nodeterminism -- golden test: span duration feeds observability only
	return obs.Mono() - start //contender:allow nodeterminism -- golden test: span duration feeds observability only
}

func MissingReason() time.Time {
	//contender:allow nodeterminism // want `//contender:allow directive requires a reason`
	return time.Now() // want `call to time.Now breaks the deterministic-collection invariant`
}

func WrongAnalyzerNamed() time.Time {
	//contender:allow hotpathalloc -- golden test: names a different analyzer, so it must not suppress
	return time.Now() // want `call to time.Now breaks the deterministic-collection invariant`
}
