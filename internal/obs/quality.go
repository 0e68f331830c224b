package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Prediction-quality telemetry: Feedback pairs an observed latency with
// the prediction that was served for it, and this file turns the
// resulting stream of signed relative errors into per-template accuracy
// statistics (counts, rolling MRE, fixed-bucket error histograms with
// quantiles) plus a deterministic drift detector that moves each
// template through healthy → degraded → stale with hysteresis.
//
// Everything here is allocation-conscious: after the first feedback for
// a template its tracker caches every metric handle and label string,
// so the warm Observe path performs no heap allocations — the serving
// layer can call it per prediction.

// DriftState is a template's prediction-quality state.
type DriftState uint8

const (
	// DriftHealthy: no drift detected; predictions are trustworthy.
	DriftHealthy DriftState = iota
	// DriftDegraded: the drift detector fired — the error distribution
	// has shifted since training and predictions should be treated with
	// caution.
	DriftDegraded
	// DriftStale: the error level stayed high after the drift fired —
	// the template's model no longer describes the workload and should
	// be retrained.
	DriftStale
)

// String returns the canonical lowercase state name.
func (s DriftState) String() string {
	switch s {
	case DriftHealthy:
		return "healthy"
	case DriftDegraded:
		return "degraded"
	case DriftStale:
		return "stale"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// TransitionLabel renders a state transition as "from>to" using only
// preallocated constants, so emitting a drift event from a hot path
// performs no string concatenation.
func TransitionLabel(from, to DriftState) string {
	switch {
	case from == DriftHealthy && to == DriftDegraded:
		return "healthy>degraded"
	case from == DriftDegraded && to == DriftStale:
		return "degraded>stale"
	case from == DriftDegraded && to == DriftHealthy:
		return "degraded>healthy"
	case from == DriftStale && to == DriftDegraded:
		return "stale>degraded"
	}
	return "transition"
}

// DefaultErrorBuckets are the fixed histogram bounds for |relative
// error|: dense below 25% (the paper's headline MRE region), sparse
// above.
var DefaultErrorBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.75, 1, 2.5,
}

// DriftConfig tunes the per-template drift detector. The zero value
// selects the defaults noted on each field; every parameter is
// deterministic (no clocks, no randomness), so the same feedback
// sequence always produces the same state trajectory.
type DriftConfig struct {
	// MinSamples is the number of feedback samples a template must
	// accumulate before any transition fires (default 10).
	MinSamples int
	// Delta is the Page-Hinkley drift tolerance: per-sample deviations
	// from the running mean smaller than Delta never accumulate
	// (default 0.05, i.e. 5 points of relative error).
	Delta float64
	// Lambda is the Page-Hinkley threshold: healthy → degraded fires
	// when the accumulated deviation statistic reaches Lambda
	// (default 2).
	Lambda float64
	// StaleMRE: a degraded template whose trailing-window mean
	// |relative error| is at or above this level after a full dwell
	// window becomes stale (default 0.35).
	StaleMRE float64
	// RecoverMRE: a degraded (or stale) template whose trailing-window
	// mean |relative error| falls to this level or below steps down one
	// state (default 0.15). Keeping RecoverMRE well under StaleMRE is
	// the hysteresis band.
	RecoverMRE float64
	// Window is both the trailing-window length for the level checks
	// and the dwell (in samples) a template must spend in a state
	// before leaving it again (default 12).
	Window int
	// ErrorBuckets are the |relative error| histogram bounds
	// (DefaultErrorBuckets when nil).
	ErrorBuckets []float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.Lambda <= 0 {
		c.Lambda = 2
	}
	if c.StaleMRE <= 0 {
		c.StaleMRE = 0.35
	}
	if c.RecoverMRE <= 0 {
		c.RecoverMRE = 0.15
	}
	if c.Window <= 0 {
		c.Window = 12
	}
	if c.ErrorBuckets == nil {
		c.ErrorBuckets = DefaultErrorBuckets
	}
	return c
}

// DriftResult reports the outcome of one feedback observation.
type DriftResult struct {
	// State is the template's state after folding in the sample.
	State DriftState
	// Previous is the state before the sample; Transitioned is true
	// when they differ.
	Previous     DriftState
	Transitioned bool
	// Count is the template's total feedback samples so far.
	Count int64
	// Detector is the current Page-Hinkley statistic (0 right after a
	// transition — the detector resets so the new regime starts clean).
	Detector float64
	// WindowMRE is the trailing-window mean |relative error|.
	WindowMRE float64
}

// Quality aggregates prediction-accuracy feedback per template. It owns
// its own metric Registry with the quality.* families:
//
//	contender_quality_feedback_total{template=...}     feedback samples
//	contender_quality_relative_error{template=...}     |rel err| histogram
//	contender_quality_mre{template=...}                rolling mean |rel err|
//	contender_quality_state{template=...}              0 healthy, 1 degraded, 2 stale
//	contender_quality_transitions_total{template=...}  drift transitions
//
// All methods are safe for concurrent use. Observe is allocation-free
// once a template's tracker exists.
type Quality struct {
	cfg DriftConfig
	reg *Registry

	feedback    *CounterVec
	errHist     *HistogramVec
	mre         *GaugeVec
	state       *GaugeVec
	transitions *CounterVec

	mu       sync.RWMutex
	trackers map[int]*templateQuality
}

// NewQuality returns a quality aggregator with the given detector
// configuration (zero value: defaults).
func NewQuality(cfg DriftConfig) *Quality {
	cfg = cfg.withDefaults()
	reg := NewRegistry()
	return &Quality{
		cfg:         cfg,
		reg:         reg,
		feedback:    reg.CounterVec("contender_quality_feedback_total", "Observed-latency feedback samples by template.", "template"),
		errHist:     reg.HistogramVec("contender_quality_relative_error", "Absolute relative prediction error by template.", "template", cfg.ErrorBuckets),
		mre:         reg.GaugeVec("contender_quality_mre", "Rolling mean relative error by template.", "template"),
		state:       reg.GaugeVec("contender_quality_state", "Drift state by template: 0 healthy, 1 degraded, 2 stale.", "template"),
		transitions: reg.CounterVec("contender_quality_transitions_total", "Drift state transitions by template.", "template"),
		trackers:    map[int]*templateQuality{},
	}
}

// Config returns the effective detector configuration (defaults filled).
func (q *Quality) Config() DriftConfig { return q.cfg }

// Registry exposes the quality metric families for exposition (the CLI
// metrics endpoint appends them to /metrics).
func (q *Quality) Registry() *Registry { return q.reg }

// templateQuality is one template's tracker. The metric handles and the
// window ring are allocated once, on first feedback, so the warm path
// is allocation-free.
type templateQuality struct {
	mu sync.Mutex

	template int
	count    int64
	sumAbs   float64
	last     float64

	// Two-sided Page-Hinkley on the signed relative error: a sustained
	// shift of the error mean in either direction accumulates in one of
	// the two statistics; per-template bias present from the start is
	// absorbed into the running mean and never fires.
	phN, phMean  float64
	phPos, phMin float64
	phNeg, phMax float64

	state           DriftState
	transitionCount int64
	sinceTransition int64

	window []float64 // ring of trailing |relative error|
	wIdx   int
	wFill  int
	wSum   float64

	feedback *Counter
	errHist  *Histogram
	mre      *Gauge
	stateG   *Gauge
	transC   *Counter
}

func (q *Quality) tracker(template int) *templateQuality {
	q.mu.RLock()
	t, ok := q.trackers[template]
	q.mu.RUnlock()
	if ok {
		return t
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.trackers[template]; ok {
		return t
	}
	label := strconv.Itoa(template)
	t = &templateQuality{
		template: template,
		window:   make([]float64, q.cfg.Window),
		feedback: q.feedback.With(label),
		errHist:  q.errHist.With(label),
		mre:      q.mre.With(label),
		stateG:   q.state.With(label),
		transC:   q.transitions.With(label),
	}
	q.trackers[template] = t
	return t
}

// Observe folds one signed relative error ((observed-predicted)/observed)
// into the template's tracker and runs the drift state machine.
// Non-finite samples are dropped (the current state is returned
// unchanged). The warm path performs no heap allocations.
func (q *Quality) Observe(template int, signedErr float64) DriftResult {
	t := q.tracker(template)
	t.mu.Lock()
	defer t.mu.Unlock()
	if math.IsNaN(signedErr) || math.IsInf(signedErr, 0) {
		return DriftResult{State: t.state, Previous: t.state, Count: t.count}
	}
	abs := signedErr
	if abs < 0 {
		abs = -abs
	}
	t.count++
	t.sumAbs += abs
	t.last = signedErr
	t.feedback.Inc()
	t.errHist.Observe(abs)

	// Page-Hinkley update (two-sided, with tolerance Delta).
	t.phN++
	t.phMean += (signedErr - t.phMean) / t.phN
	t.phPos += signedErr - t.phMean - q.cfg.Delta
	if t.phPos < t.phMin {
		t.phMin = t.phPos
	}
	t.phNeg += signedErr - t.phMean + q.cfg.Delta
	if t.phNeg > t.phMax {
		t.phMax = t.phNeg
	}
	stat := t.phPos - t.phMin
	if neg := t.phMax - t.phNeg; neg > stat {
		stat = neg
	}

	// Trailing window of |relative error| for the level checks.
	if t.wFill == len(t.window) {
		t.wSum -= t.window[t.wIdx]
	} else {
		t.wFill++
	}
	t.window[t.wIdx] = abs
	t.wSum += abs
	t.wIdx++
	if t.wIdx == len(t.window) {
		t.wIdx = 0
	}
	wm := t.wSum / float64(t.wFill)

	t.sinceTransition++
	prev := t.state
	if t.count >= int64(q.cfg.MinSamples) {
		dwell := t.sinceTransition >= int64(q.cfg.Window)
		switch t.state {
		case DriftHealthy:
			if stat >= q.cfg.Lambda && t.sinceTransition >= int64(q.cfg.MinSamples) {
				t.state = DriftDegraded
			}
		case DriftDegraded:
			if dwell && wm >= q.cfg.StaleMRE {
				t.state = DriftStale
			} else if dwell && wm <= q.cfg.RecoverMRE {
				t.state = DriftHealthy
			}
		case DriftStale:
			if dwell && wm <= q.cfg.RecoverMRE {
				t.state = DriftDegraded
			}
		}
	}
	transitioned := t.state != prev
	if transitioned {
		t.transitionCount++
		t.transC.Inc()
		t.sinceTransition = 0
		// Reset the detector: the new regime's mean becomes the new
		// baseline, so recovery is judged by error level, not by the
		// shift that already fired.
		t.phN, t.phMean = 0, 0
		t.phPos, t.phMin = 0, 0
		t.phNeg, t.phMax = 0, 0
		stat = 0
	}
	t.mre.Set(t.sumAbs / float64(t.count))
	t.stateG.Set(float64(t.state))
	return DriftResult{
		State:        t.state,
		Previous:     prev,
		Transitioned: transitioned,
		Count:        t.count,
		Detector:     stat,
		WindowMRE:    wm,
	}
}

// ResetTemplate rearms a template's tracker after its model was
// replaced: the drift detector, trailing window, rolling error sums, and
// state machine restart from healthy, so the new model is judged only on
// its own feedback instead of inheriting the stale regime's statistics.
// Monotonic counters (feedback and transition totals, histograms) are
// preserved — they are cumulative telemetry, not model state. Resetting
// an unknown template is a no-op.
func (q *Quality) ResetTemplate(template int) {
	if q == nil {
		return
	}
	q.mu.RLock()
	t, ok := q.trackers[template]
	q.mu.RUnlock()
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count = 0
	t.sumAbs = 0
	t.last = 0
	t.phN, t.phMean = 0, 0
	t.phPos, t.phMin = 0, 0
	t.phNeg, t.phMax = 0, 0
	t.state = DriftHealthy
	t.sinceTransition = 0
	for i := range t.window {
		t.window[i] = 0
	}
	t.wIdx, t.wFill, t.wSum = 0, 0, 0
	t.mre.Set(0)
	t.stateG.Set(float64(DriftHealthy))
}

// State returns a template's current drift state (healthy when the
// template has never received feedback).
func (q *Quality) State(template int) DriftState {
	q.mu.RLock()
	t, ok := q.trackers[template]
	q.mu.RUnlock()
	if !ok {
		return DriftHealthy
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// TemplateQuality is one template's accuracy summary in a QualityReport.
type TemplateQuality struct {
	Template    int     `json:"template"`
	Count       int64   `json:"count"`
	MRE         float64 `json:"mre"`
	WindowMRE   float64 `json:"window_mre"`
	P50         float64 `json:"p50"`
	P90         float64 `json:"p90"`
	P99         float64 `json:"p99"`
	State       string  `json:"state"`
	Transitions int64   `json:"transitions"`
	LastError   float64 `json:"last_error"`
}

// QualityReport is a point-in-time summary of prediction quality across
// all templates that received feedback, sorted by template ID.
type QualityReport struct {
	Samples   int64             `json:"samples"`
	Healthy   int               `json:"healthy"`
	Degraded  int               `json:"degraded"`
	Stale     int               `json:"stale"`
	Templates []TemplateQuality `json:"templates"`
}

// Report snapshots every template tracker. A nil Quality reports zero
// templates, so callers can expose the endpoint unconditionally.
func (q *Quality) Report() QualityReport {
	rep := QualityReport{Templates: []TemplateQuality{}}
	if q == nil {
		return rep
	}
	q.mu.RLock()
	trackers := make([]*templateQuality, 0, len(q.trackers))
	for _, t := range q.trackers {
		trackers = append(trackers, t)
	}
	q.mu.RUnlock()
	sort.Slice(trackers, func(i, j int) bool { return trackers[i].template < trackers[j].template })
	for _, t := range trackers {
		t.mu.Lock()
		tq := TemplateQuality{
			Template:    t.template,
			Count:       t.count,
			State:       t.state.String(),
			Transitions: t.transitionCount,
			LastError:   t.last,
		}
		if t.count > 0 {
			tq.MRE = t.sumAbs / float64(t.count)
		}
		if t.wFill > 0 {
			tq.WindowMRE = t.wSum / float64(t.wFill)
		}
		state := t.state
		t.mu.Unlock()
		hist := t.errHist.snapshot()
		tq.P50 = hist.Quantile(0.50)
		tq.P90 = hist.Quantile(0.90)
		tq.P99 = hist.Quantile(0.99)
		rep.Samples += tq.Count
		switch state {
		case DriftHealthy:
			rep.Healthy++
		case DriftDegraded:
			rep.Degraded++
		case DriftStale:
			rep.Stale++
		}
		rep.Templates = append(rep.Templates, tq)
	}
	return rep
}

// WritePrometheus renders the quality metric families in the Prometheus
// text exposition format.
func (q *Quality) WritePrometheus(w io.Writer) error { return q.reg.WritePrometheus(w) }

// ServeHTTP serves the quality report as JSON, making *Quality
// mountable directly on an http.ServeMux (the CLIs mount it at
// /quality beside /metrics).
func (q *Quality) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(q.Report())
}
