package contender

import (
	"context"
	"time"

	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/lifecycle"
	"contender/internal/obs"
)

// Self-healing lifecycle facade: close the drift loop. A workbench built
// with WithQuality feeds prediction feedback into the drift detector
// through Predictor.Feedback, which the server calls inline for every
// feedback request. Lifecycle watches the detector and, when templates
// go stale, re-collects ONLY their samples, refits, replays a canary
// holdout, and hot-swaps the candidate into the Sharded snapshot when
// the holdout error improved —
// otherwise it rolls back and keeps serving the current model. Promoted
// models persist as new versions in the workbench's store (WithStore).
// A retrain that fails never interrupts serving: the loop degrades,
// cools down, and tries again.

// LifecycleConfig tunes Workbench.Lifecycle. The zero value is a working
// gated loop.
type LifecycleConfig struct {
	// Store overrides the workbench's WithStore store (nil: use it, or
	// run without persistence when the workbench has none).
	Store *KnowledgeStore
	// Retry wraps each re-collection campaign in bounded backoff with
	// quarantine semantics.
	Retry *RetryPolicy
	// Observer receives lifecycle.* events (nil: the workbench's).
	Observer Observer
	// MinImprove is the relative holdout-MRE improvement a candidate must
	// deliver to promote: newMRE <= oldMRE*(1-MinImprove). Zero means
	// "not worse".
	MinImprove float64
	// Cooldown is how many Step calls to idle after a retrain attempt
	// before acting again (default 1).
	Cooldown int
	// CheckpointPath, when set, makes each re-collection campaign
	// resumable across interruptions.
	CheckpointPath string
	// World models the drifted substrate for re-collection and canary
	// replay: it maps a re-measured latency of a stale template (mpl 1
	// for isolated runs) to what the live system now produces. nil is
	// the identity — on a real system the fresh measurements ARE the
	// drifted world; against the simulator a World injects the drift.
	World func(template, mpl int, latency float64) float64
	// DisableCanary skips holdout gating: candidates promote
	// unconditionally. Production loops should keep the canary.
	DisableCanary bool
}

// LifecycleReport describes one control-loop step: the action taken,
// the stale templates, the canary's holdout MREs, and the published
// store version on promotion.
type LifecycleReport = lifecycle.StepReport

// LifecycleAction is the decision a lifecycle step took.
type LifecycleAction = lifecycle.Action

// Lifecycle step actions.
const (
	// LifecycleIdle: no template is stale.
	LifecycleIdle = lifecycle.ActionIdle
	// LifecycleCooldown: stale templates exist but a recent attempt is
	// cooling down.
	LifecycleCooldown = lifecycle.ActionCooldown
	// LifecyclePromoted: the candidate won the canary and is serving.
	LifecyclePromoted = lifecycle.ActionPromoted
	// LifecycleRolledBack: the candidate lost the canary.
	LifecycleRolledBack = lifecycle.ActionRolledBack
	// LifecycleFailed: re-collection or refit errored; the old model
	// keeps serving.
	LifecycleFailed = lifecycle.ActionFailed
)

// Lifecycle is the self-healing control loop over one Sharded serving
// set. Steps serialize internally; serving is never blocked.
type Lifecycle struct {
	inner *lifecycle.Manager
}

// Lifecycle wires the self-healing loop over a sharded serving set built
// from this workbench's models. It requires WithQuality — staleness is
// read from the workbench's drift detector — and uses the workbench's
// store and observer unless the config overrides them.
func (w *Workbench) Lifecycle(s *Sharded, cfg LifecycleConfig) (*Lifecycle, error) {
	world := cfg.World
	collector := lifecycle.CollectorFunc(func(ctx context.Context, stale []int) (*core.Predictor, error) {
		return w.env.Recollect(ctx, experiments.RecollectConfig{
			Templates:      stale,
			World:          world,
			Retry:          cfg.Retry,
			CheckpointPath: cfg.CheckpointPath,
		})
	})
	var holdout lifecycle.HoldoutFunc
	if !cfg.DisableCanary {
		holdout = func(stale []int) []lifecycle.Sample {
			var out []lifecycle.Sample
			for _, mpl := range w.env.MPLs() {
				for _, id := range stale {
					for _, o := range w.env.ObservationsFor(mpl, id) {
						observed := o.Latency
						if world != nil {
							observed = world(o.Primary, mpl, o.Latency)
						}
						out = append(out, lifecycle.Sample{Primary: o.Primary, Concurrent: o.Concurrent, Observed: observed})
					}
				}
			}
			return out
		}
	}
	observer := obs.Isolate(cfg.Observer)
	if !observer.On() {
		observer = w.env.Opts.Observer
	}
	st := cfg.Store
	if st == nil {
		st = w.store
	}
	lcfg := lifecycle.Config{
		Quality:    w.quality,
		Blame:      w.blame,
		Collector:  collector,
		Holdout:    holdout,
		Observer:   observer,
		Retry:      cfg.Retry,
		MinImprove: cfg.MinImprove,
		Cooldown:   cfg.Cooldown,
	}
	if st != nil {
		lcfg.Store = st.inner
	}
	m, err := lifecycle.New(s.inner, lcfg)
	if err != nil {
		return nil, err
	}
	return &Lifecycle{inner: m}, nil
}

// Step runs one control-loop iteration: read drift states, and — when
// templates are stale — retrain, canary, and promote or roll back. The
// returned error is non-nil only for context cancellation; every other
// failure degrades gracefully into the report.
func (l *Lifecycle) Step(ctx context.Context) (LifecycleReport, error) {
	return l.inner.Step(ctx)
}

// ForceRetrain runs the retrain → canary → promote/rollback sequence for
// an explicit template set, bypassing drift detection and cooldown.
func (l *Lifecycle) ForceRetrain(ctx context.Context, templates []int) (LifecycleReport, error) {
	return l.inner.ForceRetrain(ctx, templates)
}

// Run steps the loop every interval until ctx is cancelled.
func (l *Lifecycle) Run(ctx context.Context, interval time.Duration) error {
	return l.inner.Run(ctx, interval)
}

// Degraded reports whether the loop is serving a model it has tried and
// failed to replace since the last successful promotion.
func (l *Lifecycle) Degraded() bool { return l.inner.Degraded() }
