// Package obs is Contender's observability layer: a span-style event
// model shared by training, serving, scheduling, and the simulator, an
// allocation-conscious metrics registry with expvar and Prometheus-text
// exposition, and profiling hooks (pprof goroutine labels, a
// slow-operation log).
//
// The design is pull-based and dependency-free: instrumented code emits
// small value-type Events to a single Observer interface, and concrete
// observers (Metrics, Recording, SlowLog, or any user implementation)
// interpret them. A nil Observer is always legal and is checked before
// any clock read or allocation, so uninstrumented hot paths — notably
// Predictor.PredictKnown — stay at 0 allocs/op.
package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind distinguishes the three event shapes.
type Kind uint8

const (
	// SpanBegin marks the start of a timed operation. Not every span
	// emits a begin: cheap serving calls emit only a SpanEnd carrying
	// the measured duration.
	SpanBegin Kind = iota
	// SpanEnd marks the completion of a timed operation; Dur holds the
	// wall-clock (or, for simulator spans, virtual) duration and Err is
	// non-empty if the operation failed.
	SpanEnd
	// Point is an instantaneous occurrence — a retry, a quarantine, a
	// checkpoint write — counted but not timed.
	Point
)

// String returns the canonical lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case SpanBegin:
		return "begin"
	case SpanEnd:
		return "end"
	case Point:
		return "point"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Span taxonomy. Every instrumented operation uses one of these names,
// so metric label values and trace streams are stable across layers.
const (
	// Training campaign phases.
	SpanTrainCampaign = "train.campaign" // whole collection+fit run
	SpanTrainScan     = "train.scan"     // fact-table scan calibration
	SpanTrainProfile  = "train.profile"  // full template profile (isolated+spoiler)
	SpanTrainIsolated = "train.isolated" // one isolated latency run
	SpanTrainSpoiler  = "train.spoiler"  // one spoiler run at an MPL
	SpanTrainMix      = "train.mix"      // one LHS mix sample
	SpanTrainFit      = "train.fit"      // QS model fit over collected samples

	// Resilience point events.
	PointTrainRetry      = "train.retry"      // a retryable failure about to back off
	PointTrainQuarantine = "train.quarantine" // a site quarantined after exhausting retries
	PointTrainCheckpoint = "train.checkpoint" // a measurement flushed to the checkpoint
	PointTrainResume     = "train.resume"     // a measurement replayed from a checkpoint

	// Serving calls. serve.predict_explain is PredictKnown with the
	// per-neighbor blame decomposition attached; it carries the same
	// fields as serve.predict_known.
	SpanServePredictKnown   = "serve.predict_known"
	SpanServePredictBatch   = "serve.predict_batch"
	SpanServePredictNew     = "serve.predict_new"
	SpanServePredictExplain = "serve.predict_explain"
	SpanServeCQI            = "serve.cqi"

	// Network serving layer (internal/serve). serve.request spans one
	// wire request on either protocol, with Key carrying the operation
	// ("predict", "predict_batch", "feedback") and Value the number of
	// predictions it produced. The point events mark the control
	// decisions around the data path: serve.overload fires when
	// admission control rejects a request (token bucket empty or the
	// in-flight cap reached) and serve.conn per accepted binary
	// connection.
	SpanServeRequest   = "serve.request"
	PointServeOverload = "serve.overload"
	PointServeConn     = "serve.conn"

	// Scheduler.
	SpanSchedPolicy   = "sched.policy"   // one policy Order() evaluation
	SpanSchedForecast = "sched.forecast" // one queue-latency forecast

	// Simulator (bridged from sim.Tracer; durations are virtual time).
	SpanSimQuery  = "sim.query"
	PointSimStage = "sim.stage"

	// Prediction-quality feedback (Predictor.Feedback). quality.feedback
	// fires per observed latency with Value carrying the signed relative
	// error; quality.drift fires when a template's drift state changes,
	// with Key carrying the transition (e.g. "healthy>degraded") and
	// Value the detector statistic at the moment it fired.
	PointQualityFeedback = "quality.feedback"
	PointQualityDrift    = "quality.drift"

	// Knowledge lifecycle (internal/lifecycle). lifecycle.retrain spans
	// a re-collection + refit; lifecycle.canary spans the holdout
	// validation replay of a candidate, with Value carrying its holdout
	// MRE. The point events mark control-loop decisions: lifecycle.stale
	// fires per template entering targeted re-collection,
	// lifecycle.promote when a candidate passes canary and hot-swaps in,
	// lifecycle.rollback when it fails and the old model keeps serving,
	// and lifecycle.degraded when a retrain attempt errors out (serving
	// continues on the current model either way).
	SpanLifecycleRetrain   = "lifecycle.retrain"
	SpanLifecycleCanary    = "lifecycle.canary"
	PointLifecycleStale    = "lifecycle.stale"
	PointLifecyclePromote  = "lifecycle.promote"
	PointLifecycleRollback = "lifecycle.rollback"
	PointLifecycleDegraded = "lifecycle.degraded"

	// Versioned knowledge store (internal/store). store.publish fires
	// per published version with Key carrying the fingerprint;
	// store.fallback when recovery demoted a corrupt current version.
	PointStorePublish  = "store.publish"
	PointStoreFallback = "store.fallback"
)

// Event is the single record type flowing through an Observer. It is
// passed by value and contains no pointers besides strings, so emitting
// one performs no heap allocation. Unused fields are left zero.
type Event struct {
	Kind     Kind
	Span     string        // taxonomy name (Span*/Point* constants)
	Key      string        // task site, e.g. "spoiler/5/3" or "mix/4/2"
	Template int           // primary template ID, when one applies
	MPL      int           // multiprogramming level, when one applies
	Stream   int           // simulator stream, for sim.* events
	Attempt  int           // attempts consumed (SpanEnd) or retry ordinal (Point)
	Value    float64       // span-specific payload: latency, CQI, batch size…
	Dur      time.Duration // SpanEnd only; wall-clock unless noted virtual
	Err      string        // non-empty when the operation failed
}

// Observer receives instrumentation events. Implementations must be
// safe for concurrent use: the parallel collection pool emits from
// multiple goroutines. Implementations should be fast — events fire on
// hot-ish paths — and must not retain the Event beyond the call unless
// they copy it (it is a value, so plain assignment copies).
type Observer interface {
	Event(Event)
}

// epoch is the zero of Mono: its monotonic reading, taken at package
// initialisation.
var epoch = time.Now()

// Mono returns the monotonic time since process start. A span brackets
// its work with two Mono calls and reports their difference as Dur:
// each call is one monotonic clock read, where time.Now reads the wall
// clock as well. Mono values are meaningful only as differences.
func Mono() time.Duration { return time.Since(epoch) }

// Emit delivers ev to o, tolerating both a nil observer and a panicking
// one. All instrumented code funnels through Emit (or performs the same
// nil check first), which is what makes a user-supplied Observer unable
// to corrupt training or serving results: a panic inside Event() is
// swallowed here, at the instrumentation boundary.
func Emit(o Observer, ev Event) {
	if o == nil {
		return
	}
	defer func() { _ = recover() }()
	o.Event(ev)
}

// multi fans events out to several observers, isolating each from the
// others' panics.
type multi []Observer

func (m multi) Event(ev Event) {
	for _, o := range m {
		Emit(o, ev)
	}
}

// Multi combines observers into one. Nil entries are dropped; Multi
// returns nil when nothing remains and the sole observer when only one
// does, so the nil fast path and single-observer dispatch stay cheap.
func Multi(observers ...Observer) Observer {
	kept := make(multi, 0, len(observers))
	for _, o := range observers {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// FindMetrics returns the first *Metrics reachable from o (directly or
// inside a Multi), or nil. The facade uses it to answer
// MetricsSnapshot() regardless of how the user composed observers.
func FindMetrics(o Observer) *Metrics {
	switch v := o.(type) {
	case *Metrics:
		return v
	case multi:
		for _, sub := range v {
			if m := FindMetrics(sub); m != nil {
				return m
			}
		}
	}
	return nil
}

// Recording is an Observer that appends every event to an in-memory
// log. It is the backbone of the golden determinism tests and a handy
// debugging tool; it is safe for concurrent use.
type Recording struct {
	mu     sync.Mutex
	events []Event
}

// NewRecording returns an empty recording observer.
func NewRecording() *Recording { return &Recording{} }

// Event appends ev to the log.
func (r *Recording) Event(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recording) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Recording) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events.
func (r *Recording) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// CanonicalLog renders the recorded events one per line in a
// byte-stable format: wall-clock durations are excluded (they vary run
// to run) while every deterministic field — spans, keys, attempts,
// simulator virtual times, measured values — is included. Two
// same-seed single-worker campaigns therefore produce byte-identical
// canonical logs.
func (r *Recording) CanonicalLog() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		writeCanonical(&b, ev)
		b.WriteByte('\n')
	}
	return b.String()
}

// CountSpan returns how many recorded events carry the given span name.
func (r *Recording) CountSpan(span string) int {
	n := 0
	r.mu.Lock()
	for _, ev := range r.events {
		if ev.Span == span {
			n++
		}
	}
	r.mu.Unlock()
	return n
}

func writeCanonical(b *strings.Builder, ev Event) {
	b.WriteString(ev.Kind.String())
	b.WriteByte(' ')
	b.WriteString(ev.Span)
	if ev.Key != "" {
		b.WriteString(" key=")
		b.WriteString(ev.Key)
	}
	if ev.Template != 0 {
		b.WriteString(" template=")
		b.WriteString(strconv.Itoa(ev.Template))
	}
	if ev.MPL != 0 {
		b.WriteString(" mpl=")
		b.WriteString(strconv.Itoa(ev.MPL))
	}
	if ev.Stream != 0 {
		b.WriteString(" stream=")
		b.WriteString(strconv.Itoa(ev.Stream))
	}
	if ev.Attempt != 0 {
		b.WriteString(" attempt=")
		b.WriteString(strconv.Itoa(ev.Attempt))
	}
	if ev.Value != 0 {
		b.WriteString(" value=")
		b.WriteString(strconv.FormatFloat(ev.Value, 'g', -1, 64))
	}
	if ev.Err != "" {
		b.WriteString(" err=")
		b.WriteString(ev.Err)
	}
}

// ErrLabel flattens an error into the Event.Err field: empty for nil.
func ErrLabel(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// SortEvents orders events by (span, key, kind, attempt) — a canonical
// order for comparing multi-worker runs, whose arrival order is
// nondeterministic even though the event set is not.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Attempt < b.Attempt
	})
}
