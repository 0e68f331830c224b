package contender

import (
	"io"
	"time"

	"contender/internal/obs"
	"contender/internal/sim"
)

// Observability facade: every layer of the framework — the sampling
// campaign (Workbench and TrainFromSystem alike), serving, scheduling,
// the simulator — emits structured events to a single Observer
// interface. Install one
// with WithObserver (Workbench path) or TrainConfig.Observer (System
// path); the trained Predictor inherits it for serving spans.
//
// Three observers ship in the box:
//
//   - NewMetrics: an allocation-conscious registry of counters, gauges,
//     and latency histograms with Prometheus-text and expvar exposition
//     (serve it over HTTP via the -metrics-addr flag of the CLIs, or
//     http.Handle("/metrics", m)).
//   - NewRecordingObserver: an in-memory event log with a byte-stable
//     canonical rendering — the backbone of the golden determinism
//     tests.
//   - NewSlowLog: a threshold filter that prints operations slower than
//     a cutoff.
//
// Compose several with MultiObserver. A nil Observer is always legal
// and is checked before any clock read, so uninstrumented hot paths
// (notably Predictor.PredictKnown) stay at 0 allocs/op.

// Observer receives instrumentation events. Implementations must be
// safe for concurrent use and should be fast; see the obs package for
// the event model. A panicking Observer cannot corrupt training or
// serving: panics are swallowed at the emit site.
type Observer = obs.Observer

// Event is the single record type delivered to an Observer.
type Event = obs.Event

// EventKind distinguishes span begins, span ends, and point events.
type EventKind = obs.Kind

// Event kinds.
const (
	EventSpanBegin = obs.SpanBegin
	EventSpanEnd   = obs.SpanEnd
	EventPoint     = obs.Point
)

// Span taxonomy, re-exported for filtering events and reading metric
// labels. See the obs package for the full catalogue.
const (
	SpanTrainCampaign = obs.SpanTrainCampaign
	SpanTrainScan     = obs.SpanTrainScan
	SpanTrainProfile  = obs.SpanTrainProfile
	SpanTrainIsolated = obs.SpanTrainIsolated
	SpanTrainSpoiler  = obs.SpanTrainSpoiler
	SpanTrainMix      = obs.SpanTrainMix
	SpanTrainFit      = obs.SpanTrainFit

	PointTrainRetry      = obs.PointTrainRetry
	PointTrainQuarantine = obs.PointTrainQuarantine
	PointTrainCheckpoint = obs.PointTrainCheckpoint
	PointTrainResume     = obs.PointTrainResume

	SpanServePredictKnown = obs.SpanServePredictKnown
	SpanServePredictBatch = obs.SpanServePredictBatch
	SpanServePredictNew   = obs.SpanServePredictNew
	SpanServeCQI          = obs.SpanServeCQI

	SpanSchedPolicy   = obs.SpanSchedPolicy
	SpanSchedForecast = obs.SpanSchedForecast

	SpanSimQuery  = obs.SpanSimQuery
	PointSimStage = obs.PointSimStage

	PointQualityFeedback = obs.PointQualityFeedback
	PointQualityDrift    = obs.PointQualityDrift
)

// Metrics is an Observer that folds the event stream into counters,
// gauges, and latency histograms. It implements http.Handler (serving
// the Prometheus text format) and exposes snapshots for in-process
// consumption.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of every metric family.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one histogram's frozen buckets, with quantile
// estimation.
type HistogramSnapshot = obs.HistogramSnapshot

// NewMetrics returns a metrics-collecting Observer with the standard
// Contender metric families registered (contender_spans_total,
// contender_span_duration_seconds, contender_retries_total, …).
func NewMetrics() *Metrics { return obs.NewMetrics() }

// RecordingObserver is an Observer that appends every event to an
// in-memory log, safe for concurrent use. Its CanonicalLog method
// renders the deterministic fields byte-stably: two same-seed
// single-worker campaigns produce identical logs.
type RecordingObserver = obs.Recording

// NewRecordingObserver returns an empty recording Observer.
func NewRecordingObserver() *RecordingObserver { return obs.NewRecording() }

// NewSlowLog returns an Observer that writes one line to w for every
// completed span whose duration is at least threshold — a cheap way to
// surface outlier measurements or slow serving calls without storing
// the full event stream.
func NewSlowLog(w io.Writer, threshold time.Duration) Observer {
	return obs.NewSlowLog(w, threshold)
}

// MultiObserver fans events out to several observers, isolating each
// from the others' panics. Nil entries are dropped; the result is nil
// when nothing remains, so MultiObserver(nil, nil) keeps the
// fast path.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// EmitEvent delivers ev to o, tolerating a nil or panicking observer —
// for user code that wants to inject its own events into an observer
// pipeline alongside Contender's.
func EmitEvent(o Observer, ev Event) { obs.Isolate(o).Event(ev) }

// WithObserver installs an Observer on the sampling campaign (and, via
// Workbench.Train, on the resulting Predictor). Observation never
// changes what is measured: events are emitted outside the determinism
// boundary, the observer is not part of the checkpoint fingerprint, and
// a panicking observer is isolated at the emit site. With
// WithWorkers(1) the event order is fully deterministic; with more
// workers the event SET is deterministic but arrival order is not.
func WithObserver(o Observer) Option {
	return func(c *config) { c.opts.Observer = obs.Isolate(o) }
}

// Observer returns the observer the workbench was built with, isolated
// as every instrumented layer holds it (nil when none was installed).
func (w *Workbench) Observer() Observer { return observerOf(w.env.Opts.Observer) }

// observerOf returns s as an Observer: nil when it holds none, so the
// accessors keep answering nil for an uninstrumented handle.
func observerOf(s obs.Sink) Observer {
	if !s.On() {
		return nil
	}
	return s
}

// MetricsSnapshot returns a point-in-time copy of the metrics collected
// so far, when the workbench was built with a Metrics observer (alone
// or inside a MultiObserver). The second return is false when no
// Metrics observer is installed.
func (w *Workbench) MetricsSnapshot() (MetricsSnapshot, bool) {
	m := obs.FindMetrics(w.env.Opts.Observer)
	if m == nil {
		return MetricsSnapshot{}, false
	}
	return m.Snapshot(), true
}

// ObserveSimulation bridges the workbench's simulator trace stream into
// the observer: every simulated query becomes a sim.query span (with
// virtual-time durations) and every stage transition a sim.stage point.
// Pass nil to detach. Simulator tracing is verbose — one event per
// query stage — so it is off by default even when an observer is
// installed.
func (w *Workbench) ObserveSimulation(o Observer) {
	if o == nil {
		w.env.Engine.SetTracer(nil)
		return
	}
	w.env.Engine.SetTracer(obs.NewSimTracer(obs.Isolate(o)))
}

// Compile-time interface checks for the shipped observers.
var (
	_ Observer   = (*Metrics)(nil)
	_ Observer   = (*RecordingObserver)(nil)
	_ Observer   = (*obs.SlowLog)(nil)
	_ sim.Tracer = (*obs.SimTracer)(nil)
)
