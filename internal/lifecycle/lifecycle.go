// Package lifecycle closes Contender's drift loop: a deterministic
// control loop that watches the obs.Quality drift detector, schedules
// targeted re-collection for exactly the templates whose models went
// stale, refits, gates the candidate through a canary validation replay,
// and hot-swaps it into the sharded serving layer only when the holdout
// error actually improved — otherwise it rolls back and keeps serving
// the old model.
//
// The loop is built from pieces earlier PRs already hardened: staleness
// comes from the Page-Hinkley state machine (PR 5), re-collection runs
// under the retry/checkpoint campaign machinery (PR 2), promotion uses
// core.Sharded's atomic snapshot swap (PR 6), and every accepted version
// persists through the versioned store. Failure is a first-class
// outcome: a retrain that errors, or a candidate that loses the canary,
// degrades gracefully — the current model keeps serving, a degraded-mode
// gauge flips, and the loop tries again after a cooldown. Serving is
// never interrupted by the control plane.
//
// Everything observable is deterministic: given the same feedback stream
// and the same collector, the loop takes the same transitions, emits the
// same lifecycle.* events, and publishes the same store fingerprints —
// which is how the ext-selfheal golden experiment replays the whole
// detect → recollect → validate → promote cycle byte-identically.
package lifecycle

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"time"

	"contender/internal/core"
	"contender/internal/obs"
	"contender/internal/resilience"
	"contender/internal/store"
)

func configErr(msg string) error {
	return resilience.Permanent(errors.New("lifecycle: " + msg))
}

// Collector produces a retrained candidate predictor covering (at least)
// the stale templates. Implementations run the targeted re-collection
// campaign; the facade wires experiments.Env.Recollect in here.
type Collector interface {
	Recollect(ctx context.Context, stale []int) (*core.Predictor, error)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(ctx context.Context, stale []int) (*core.Predictor, error)

// Recollect implements Collector.
func (f CollectorFunc) Recollect(ctx context.Context, stale []int) (*core.Predictor, error) {
	return f(ctx, stale)
}

// Sample is one canary holdout observation: a mix and the latency the
// live substrate actually produced for its primary.
type Sample struct {
	Primary    int
	Concurrent []int
	Observed   float64
}

// HoldoutFunc supplies the canary validation set for a retrain touching
// the given stale templates. The same stale set must yield the same
// samples for the loop to be deterministic.
type HoldoutFunc func(stale []int) []Sample

// Config wires a Manager. Quality and Collector are required.
type Config struct {
	// Quality is the drift-state source the loop watches (the same
	// aggregator the serving layer's feedback folds into).
	Quality *obs.Quality
	// Blame, when non-nil, is the contention blame aggregator the
	// serving layer feeds; a promotion resets the promoted templates'
	// blame rows so the new models' decompositions are judged on their
	// own, exactly like the quality reset below.
	Blame *obs.Blame
	// Collector runs targeted re-collection and refit for stale
	// templates.
	Collector Collector
	// Holdout supplies the canary replay set. When nil the canary is
	// skipped and candidates promote unconditionally (useful in tests;
	// production wiring should always gate).
	Holdout HoldoutFunc
	// Store, when set, persists every promoted candidate as a new
	// version before the hot-swap.
	Store *store.Store
	// Observer receives lifecycle.* events.
	Observer obs.Sink
	// Retry wraps the re-collection attempt in bounded backoff
	// (resilience.Default() semantics when nil: no retries here — the
	// campaign machinery below the Collector usually retries already).
	Retry *resilience.RetryPolicy
	// MinImprove is the relative holdout-MRE improvement a candidate
	// must deliver to promote: newMRE <= oldMRE*(1-MinImprove). Zero
	// means "not worse".
	MinImprove float64
	// Cooldown is how many Step calls to idle after any retrain attempt
	// (promoted, rolled back, or failed) before acting again, giving the
	// post-promotion feedback stream time to re-establish state
	// (default 1).
	Cooldown int
}

// Action is the decision a Step took.
type Action string

const (
	// ActionIdle: no template is stale; nothing to do.
	ActionIdle Action = "idle"
	// ActionCooldown: stale templates exist but a recent retrain attempt
	// is still cooling down.
	ActionCooldown Action = "cooldown"
	// ActionPromoted: the candidate won the canary and was hot-swapped
	// in (and published to the store when one is configured).
	ActionPromoted Action = "promoted"
	// ActionRolledBack: the candidate lost the canary; the old model
	// keeps serving.
	ActionRolledBack Action = "rolled-back"
	// ActionFailed: re-collection or refit errored; the old model keeps
	// serving and the loop will retry after the cooldown.
	ActionFailed Action = "retrain-failed"
)

// StepReport describes one control-loop step.
type StepReport struct {
	Action  Action
	Stale   []int // templates that triggered (or would trigger) a retrain
	OldMRE  float64
	NewMRE  float64
	Samples int           // canary holdout samples replayed
	Version store.Version // version published on promotion
	Err     string        // failure detail for ActionFailed
}

// Manager is the lifecycle control loop. Steps serialize on an internal
// mutex; serving through the Sharded set is never blocked by a step.
type Manager struct {
	sharded *core.Sharded
	cfg     Config

	reg        *obs.Registry
	steps      *obs.Counter
	retrains   *obs.Counter
	promotions *obs.Counter
	rollbacks  *obs.Counter
	failures   *obs.Counter
	degraded   *obs.Gauge
	staleG     *obs.Gauge
	currentSeq *obs.Gauge

	mu       sync.Mutex
	cooldown int
}

// New wires a lifecycle manager over a sharded serving set. When a store
// is configured and empty, the currently serving predictor is published
// as the baseline version, so rollback always has somewhere to land.
func New(s *core.Sharded, cfg Config) (*Manager, error) {
	if s == nil {
		return nil, configErr("nil sharded serving set")
	}
	if cfg.Quality == nil {
		return nil, configErr("config needs a Quality aggregator")
	}
	if cfg.Collector == nil {
		return nil, configErr("config needs a Collector")
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 1
	}
	reg := obs.NewRegistry()
	m := &Manager{
		sharded:    s,
		cfg:        cfg,
		reg:        reg,
		steps:      reg.Counter("contender_lifecycle_steps_total", "Control-loop steps executed."),
		retrains:   reg.Counter("contender_lifecycle_retrains_total", "Targeted re-collection attempts."),
		promotions: reg.Counter("contender_lifecycle_promotions_total", "Candidates promoted after winning the canary."),
		rollbacks:  reg.Counter("contender_lifecycle_rollbacks_total", "Candidates rejected by the canary."),
		failures:   reg.Counter("contender_lifecycle_failures_total", "Retrain attempts that errored."),
		degraded:   reg.Gauge("contender_lifecycle_degraded", "1 while the loop is serving a model it tried and failed to replace."),
		staleG:     reg.Gauge("contender_lifecycle_stale_templates", "Templates currently in the stale drift state."),
		currentSeq: reg.Gauge("contender_lifecycle_current_seq", "Store sequence number of the serving version (0 without a store)."),
	}
	if cfg.Store != nil {
		if _, ok := cfg.Store.Current(); !ok {
			v, err := cfg.Store.Publish(s.Snapshot().Snapshot(), "baseline")
			if err != nil {
				return nil, err
			}
			m.currentSeq.Set(float64(v.Seq))
			cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointStorePublish, Key: v.Fingerprint, Value: float64(v.Seq)})
		} else if v, ok := cfg.Store.Current(); ok {
			m.currentSeq.Set(float64(v.Seq))
		}
	}
	return m, nil
}

// Registry exposes the lifecycle metric families (contender_lifecycle_*)
// for exposition beside the quality families.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Degraded reports whether the loop is in degraded mode: serving a model
// it has tried and failed to replace (rollback or retrain failure) since
// the last successful promotion.
func (m *Manager) Degraded() bool { return m.degraded.Value() != 0 }

// Step runs one control-loop iteration: read drift states, and — when
// templates are stale and the loop is not cooling down — retrain,
// canary, and promote or roll back. The returned error is non-nil only
// for context cancellation; every other failure is a graceful
// degradation recorded in the report (serving is never
// interrupted by a failed retrain).
//
//contender:allow lockblock -- m.mu is the control-plane mutex: it serializes whole retrain steps by design and is never taken on a serving path, so holding it across emission and retrain is intended
func (m *Manager) Step(ctx context.Context) (StepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps.Inc()
	rep := StepReport{Action: ActionIdle}
	qrep := m.cfg.Quality.Report()
	for _, t := range qrep.Templates {
		if t.State == obs.DriftStale.String() {
			rep.Stale = append(rep.Stale, t.Template)
		}
	}
	m.staleG.Set(float64(len(rep.Stale)))
	if len(rep.Stale) == 0 {
		return rep, ctx.Err()
	}
	if m.cooldown > 0 {
		m.cooldown--
		rep.Action = ActionCooldown
		return rep, ctx.Err()
	}
	for _, id := range rep.Stale {
		m.cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointLifecycleStale, Template: id})
	}
	return m.retrainLocked(ctx, rep)
}

// ForceRetrain runs the retrain → canary → promote/rollback sequence for
// an explicit template set, bypassing drift detection and cooldown — the
// operator's (and the golden experiment's) manual lever.
//
//contender:allow lockblock -- m.mu is the control-plane mutex: it serializes whole retrain steps by design and is never taken on a serving path, so holding it across the retrain is intended
func (m *Manager) ForceRetrain(ctx context.Context, templates []int) (StepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(templates) == 0 {
		return StepReport{Action: ActionIdle}, configErr("ForceRetrain needs at least one template")
	}
	rep := StepReport{Stale: append([]int(nil), templates...)}
	return m.retrainLocked(ctx, rep)
}

// retrainLocked runs re-collection, canary gating, and the promotion
// decision. The caller holds m.mu.
func (m *Manager) retrainLocked(ctx context.Context, rep StepReport) (StepReport, error) {
	m.retrains.Inc()
	m.cooldown = m.cfg.Cooldown
	m.cfg.Observer.Event(obs.Event{Kind: obs.SpanBegin, Span: obs.SpanLifecycleRetrain, Value: float64(len(rep.Stale))})

	var candidate *core.Predictor
	collect := func() error {
		p, err := m.cfg.Collector.Recollect(ctx, rep.Stale)
		if err != nil {
			return err
		}
		if p == nil {
			return configErr("collector returned a nil predictor")
		}
		candidate = p
		return nil
	}
	var err error
	if m.cfg.Retry != nil {
		_, err = m.cfg.Retry.Do(ctx, "lifecycle/recollect", collect)
	} else {
		err = collect()
	}
	if err != nil {
		return m.failLocked(rep, err), ctx.Err()
	}

	old := m.sharded.Snapshot()
	if m.cfg.Holdout != nil {
		samples := m.cfg.Holdout(rep.Stale)
		rep.Samples = len(samples)
		rep.OldMRE, err = holdoutMRE(old, samples)
		if err == nil {
			rep.NewMRE, err = holdoutMRE(candidate, samples)
		}
		m.cfg.Observer.Event(obs.Event{Kind: obs.SpanEnd, Span: obs.SpanLifecycleCanary, Value: rep.NewMRE, Err: errString(err)})
		if err != nil {
			return m.failLocked(rep, err), ctx.Err()
		}
		if rep.NewMRE > rep.OldMRE*(1-m.cfg.MinImprove) {
			// Canary lost: keep serving the old model.
			m.rollbacks.Inc()
			m.degraded.Set(1)
			rep.Action = ActionRolledBack
			m.cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointLifecycleRollback, Value: rep.NewMRE})
			m.cfg.Observer.Event(obs.Event{Kind: obs.SpanEnd, Span: obs.SpanLifecycleRetrain, Err: "canary regression"})
			return rep, ctx.Err()
		}
	}

	// Candidate accepted: persist first, then hot-swap. The promoted
	// copy carries the quality aggregator and (unless the candidate has
	// its own) the old observer, so post-swap feedback keeps flowing
	// into the same telemetry.
	o := candidate.Observer()
	if !o.On() {
		o = old.Observer()
	}
	candidate = candidate.WithHooks(o, m.cfg.Quality)
	if m.cfg.Store != nil {
		v, perr := m.cfg.Store.Publish(candidate.Snapshot(), retrainNote(rep.Stale))
		if perr != nil {
			// Durability failed but the candidate is validated: promote
			// in memory, flag degraded, and report the publish error.
			m.failures.Inc()
			m.degraded.Set(1)
			rep.Err = perr.Error()
		} else {
			rep.Version = v
			m.currentSeq.Set(float64(v.Seq))
			m.cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointStorePublish, Key: v.Fingerprint, Value: float64(v.Seq)})
		}
	}
	if _, err := m.sharded.Swap(candidate); err != nil {
		return m.failLocked(rep, err), ctx.Err()
	}
	for _, id := range rep.Stale {
		m.cfg.Quality.ResetTemplate(id)
		m.cfg.Blame.ResetTemplate(id)
	}
	m.promotions.Inc()
	if rep.Err == "" {
		m.degraded.Set(0)
	}
	rep.Action = ActionPromoted
	m.cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointLifecyclePromote, Value: rep.NewMRE})
	m.cfg.Observer.Event(obs.Event{Kind: obs.SpanEnd, Span: obs.SpanLifecycleRetrain})
	return rep, ctx.Err()
}

// failLocked records a graceful retrain failure: the old model keeps
// serving and the loop re-arms after the cooldown.
func (m *Manager) failLocked(rep StepReport, err error) StepReport {
	m.failures.Inc()
	m.degraded.Set(1)
	rep.Action = ActionFailed
	rep.Err = err.Error()
	m.cfg.Observer.Event(obs.Event{Kind: obs.Point, Span: obs.PointLifecycleDegraded, Err: rep.Err})
	m.cfg.Observer.Event(obs.Event{Kind: obs.SpanEnd, Span: obs.SpanLifecycleRetrain, Err: rep.Err})
	return rep
}

// Run steps the loop every interval until ctx is cancelled — the
// -autoretrain serving mode. Step errors (context cancellation only) end
// the loop.
func (m *Manager) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return configErr("Run needs a positive interval")
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if _, err := m.Step(ctx); err != nil {
				return err
			}
		}
	}
}

// holdoutMRE replays the holdout set against a predictor and returns the
// mean |relative error|. Samples the predictor cannot price (unknown
// template, untrained MPL) are skipped; a holdout with no usable sample
// is an error — the canary cannot certify anything from it.
func holdoutMRE(p *core.Predictor, samples []Sample) (float64, error) {
	sum, n := 0.0, 0
	for _, s := range samples {
		if s.Observed <= 0 || math.IsNaN(s.Observed) || math.IsInf(s.Observed, 0) {
			continue
		}
		pred, err := p.PredictKnown(s.Primary, s.Concurrent)
		if err != nil {
			continue
		}
		rel := (s.Observed - pred) / s.Observed
		if rel < 0 {
			rel = -rel
		}
		sum += rel
		n++
	}
	if n == 0 {
		return 0, configErr("canary holdout has no usable samples")
	}
	return sum / float64(n), nil
}

func retrainNote(stale []int) string {
	note := "retrain"
	for i, id := range stale {
		if i == 0 {
			note += " T" + strconv.Itoa(id)
		} else {
			note += ",T" + strconv.Itoa(id)
		}
	}
	return note
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
