package experiments

import (
	"context"
	"fmt"
	"slices"

	"contender/internal/core"
	"contender/internal/resilience"
)

// Targeted re-collection: when the drift detector declares templates
// stale, the lifecycle loop re-measures ONLY the tasks those templates
// touch — their isolated+spoiler profiles and the steady-state mixes
// containing them — instead of repeating the whole campaign. The re-run
// reuses the campaign machinery end to end (private per-task engines,
// retry/backoff, quarantine, write-through checkpoints), keyed by the
// ORIGINAL task keys, so every slot a stale template does not touch is
// re-measured to byte-identical values and the candidate predictor
// differs from the serving one exactly where the drift is.
//
// The drifted substrate is modeled by a World function mapping each
// re-measured latency of a target template to what the live system now
// produces (e.g. 1.8× for the ext-quality victim slowdown). Identity
// when nil: re-collection then reproduces the original training data.

// RecollectConfig parameterizes a targeted re-collection.
type RecollectConfig struct {
	// Templates are the stale template IDs to re-measure. Required, and
	// every ID must be in the environment's knowledge base.
	Templates []int
	// World maps a re-measured latency of a target template to the
	// drifted substrate's value: World(template, mpl, latency), with
	// mpl 1 for isolated runs. nil is the identity (no drift).
	World func(template, mpl int, latency float64) float64
	// Retry, when set, wraps every re-collection task in bounded
	// backoff with quarantine semantics; any quarantined task fails the
	// whole re-collection (a partial candidate must never be promoted).
	Retry *resilience.RetryPolicy
	// CheckpointPath, when non-empty, persists completed re-collection
	// tasks (atomic write-then-rename) and resumes an interrupted
	// re-collection exactly like a training campaign.
	CheckpointPath string
}

// Recollect re-measures the targeted templates in the (possibly drifted)
// world, merges the fresh measurements into a copy of the environment's
// knowledge and observations, and refits. The environment itself is
// never mutated — the returned candidate serves until the next retrain
// replaces it, while the Env keeps describing the original campaign.
func (e *Env) Recollect(ctx context.Context, cfg RecollectConfig) (*core.Predictor, error) {
	if len(cfg.Templates) == 0 {
		return nil, resilience.Permanent(fmt.Errorf("experiments: Recollect needs at least one template"))
	}
	if e.Resilience.Degraded() {
		// The design-index ↔ sample-index correspondence below assumes
		// the original campaign kept full coverage.
		return nil, resilience.Permanent(fmt.Errorf("experiments: Recollect needs a fully covered campaign (quarantined %d tasks, dropped %d mixes)",
			len(e.Resilience.Quarantined), e.Resilience.DroppedMixes))
	}
	targets := map[int]bool{}
	for _, id := range cfg.Templates {
		if _, ok := e.Know.Template(id); !ok {
			return nil, resilience.Permanent(fmt.Errorf("experiments: Recollect: template %d is not in the knowledge base", id))
		}
		targets[id] = true
	}
	world := cfg.World
	if world == nil {
		world = func(_, _ int, l float64) float64 { return l }
	}

	// The subset of the campaign plan whose keys touch a target: its
	// template tasks and every mix containing one. Same workload, host and
	// seeds, so every re-measured value derives exactly as in the original
	// campaign; its own retry policy and checkpoint, and no fault injection
	// (the injector models collection-time chaos; the drifted world is
	// modeled by World).
	opts := e.Opts
	opts.Retry, opts.Faults, opts.CheckpointPath, opts.onTaskDone = cfg.Retry, nil, cfg.CheckpointPath, nil
	c := e.campaign(opts)
	c.plan = slices.DeleteFunc(c.plan, func(t task) bool {
		return !(t.kind == templateTask && targets[t.meta.ID]) && !(t.kind == mixTask && touches(t.mix, targets))
	})
	sub, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	if q := sub.Resilience.Quarantined; len(q) > 0 {
		// A re-collection with holes cannot produce a promotable
		// candidate: unlike the initial campaign there is no "degrade
		// coverage" option, because the caller would hot-swap the result.
		return nil, resilience.Permanent(fmt.Errorf("experiments: re-collection quarantined %d of %d tasks (first: %s: %s)",
			len(q), len(c.plan), q[0].Key, q[0].Reason))
	}

	// Rebuild knowledge: untargeted templates keep their original stats;
	// targets get the fresh profile pushed through the drifted World.
	templates := e.Know.Templates()
	for i, ts := range templates {
		if !targets[ts.ID] {
			continue
		}
		fresh, _ := sub.Know.Template(ts.ID)
		fresh.IsolatedLatency = world(ts.ID, 1, fresh.IsolatedLatency)
		spoilers := make(map[int]float64, len(fresh.SpoilerLatency))
		for mpl, lat := range fresh.SpoilerLatency {
			spoilers[mpl] = world(ts.ID, mpl, lat)
		}
		fresh.SpoilerLatency = spoilers
		templates[i] = fresh
	}
	know := core.NewKnowledge(e.Know.ScanTimes(), templates)

	// Merge observations in canonical sample order: untouched mixes come
	// from the original campaign; touched mixes from the re-measurement
	// (in the same design order), with target-primary slots pushed
	// through World.
	var allObs []core.Observation
	for _, mpl := range e.sortedMPLs() {
		fresh := sub.Samples[mpl]
		for _, orig := range e.Samples[mpl] {
			if !touches(orig.Mix, targets) {
				allObs = append(allObs, orig.Obs...)
				continue
			}
			for _, o := range fresh[0].Obs {
				if targets[o.Primary] {
					o.Latency = world(o.Primary, mpl, o.Latency)
				}
				allObs = append(allObs, o)
			}
			fresh = fresh[1:]
		}
	}
	return core.Train(know, allObs, core.TrainOptions{DropOutliers: true})
}
