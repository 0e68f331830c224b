package experiments

import (
	"context"
	"errors"
	"fmt"

	"contender/internal/core"
	"contender/internal/lifecycle"
	"contender/internal/obs"
	"contender/internal/resilience"
	"contender/internal/store"
)

// ExtSelfheal replays the whole self-healing knowledge lifecycle,
// deterministically, on top of the ext-quality drift scenario:
//
//  1. detect — train, serve through a Sharded snapshot, replay clean
//     rounds, then slow the two deterministic victim templates down by
//     qualityShiftFactor×; the drift detector must flip exactly them to
//     stale.
//  2. heal — the lifecycle control loop re-collects ONLY the victim
//     templates' tasks in the drifted world, refits, wins the canary
//     replay, publishes version 2 to the content-addressed store, and
//     hot-swaps it in with zero serving downtime; the victims' trackers
//     reset and stay healthy under continued drifted traffic.
//  3. reject — a forced retrain with an over-correcting collector (5×)
//     loses the canary against the still-1.8× world: the loop rolls
//     back, emits lifecycle.rollback, and keeps serving version 2.
//  4. survive — crash debris (a torn *.tmp from a killed publish) is
//     swept on reopen with no version loss, and a bit flip in the
//     current snapshot is caught by its checksum on the next open, which
//     falls back to version 1.
//
// Store versions are content-fingerprinted, the replay order is
// canonical, and the loop has no clocks or randomness, so the rendered
// table is byte-identical across -workers widths.
const selfhealOverFactor = 5.0

// ExtSelfheal runs the lifecycle replay.
func ExtSelfheal(e *Env) (*Result, error) {
	p1, err := core.Train(e.Know, e.AllObservations(), core.TrainOptions{DropOutliers: true})
	if err != nil {
		return nil, err
	}
	quality := obs.NewQuality(qualityDriftConfig())
	p1.SetQuality(quality)

	mpls := e.sortedMPLs()
	refs, ok := p1.References(mpls[0])
	if !ok {
		return nil, fmt.Errorf("ext-selfheal: %w: no reference models at MPL %d", core.ErrUntrainedMPL, mpls[0])
	}
	var trained []int
	for _, id := range e.TemplateIDs() {
		if _, ok := refs.Model(id); ok {
			trained = append(trained, id)
		}
	}
	if len(trained) < 2 {
		return nil, fmt.Errorf("ext-selfheal: %w: only %d trained templates", core.ErrUntrainedMPL, len(trained))
	}
	victims := qualityVictims(trained)
	victimSet := make(map[int]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}

	sharded, err := core.NewSharded(p1)
	if err != nil {
		return nil, err
	}

	// replayRound streams one full pass of the campaign observations
	// through the serving snapshot as live feedback. The drifted world
	// slows victims down.
	replayRound := func(shifted bool) error {
		for _, mpl := range mpls {
			for _, o := range e.Observations(mpl) {
				observed := o.Latency
				if shifted && victimSet[o.Primary] {
					observed *= qualityShiftFactor
				}
				if _, err := sharded.Snapshot().Feedback(o.Primary, o.Concurrent, observed); err != nil {
					return fmt.Errorf("ext-selfheal: observe T%d: %w", o.Primary, err)
				}
			}
		}
		return nil
	}
	for round := 0; round < qualityHealthyRounds; round++ {
		if err := replayRound(false); err != nil {
			return nil, err
		}
	}
	for round := 0; round < qualityShiftRounds; round++ {
		if err := replayRound(true); err != nil {
			return nil, err
		}
	}
	staleIDs := func() []int {
		var out []int
		for _, t := range quality.Report().Templates {
			if t.State == obs.DriftStale.String() {
				out = append(out, t.Template)
			}
		}
		return out
	}
	detected := staleIDs()

	// The lifecycle manager over a memory-backed store. The live world
	// keeps running victims qualityShiftFactor× slow; the collector's
	// world is switchable so the forced retrain below can over-correct.
	repo := store.NewMemRepository()
	st, err := store.New(repo)
	if err != nil {
		return nil, err
	}
	liveFactor := qualityShiftFactor
	collectFactor := qualityShiftFactor
	rec := obs.NewRecording()
	mgr, err := lifecycle.New(sharded, lifecycle.Config{
		Quality: quality,
		Collector: lifecycle.CollectorFunc(func(ctx context.Context, stale []int) (*core.Predictor, error) {
			f := collectFactor
			return e.Recollect(ctx, RecollectConfig{
				Templates: stale,
				World:     func(_, _ int, l float64) float64 { return l * f },
			})
		}),
		Holdout: func(stale []int) []lifecycle.Sample {
			var out []lifecycle.Sample
			for _, mpl := range mpls {
				for _, id := range stale {
					for _, o := range e.ObservationsFor(mpl, id) {
						out = append(out, lifecycle.Sample{
							Primary:    o.Primary,
							Concurrent: o.Concurrent,
							Observed:   o.Latency * liveFactor,
						})
					}
				}
			}
			return out
		},
		Store:    st,
		Observer: rec,
	})
	if err != nil {
		return nil, err
	}
	v1, _ := st.Current()

	// Heal: one control-loop step re-collects the stale templates,
	// passes the canary, publishes v2, and hot-swaps.
	heal, err := mgr.Step(context.Background())
	if err != nil {
		return nil, err
	}
	served := sharded.Snapshot()
	if served == p1 && heal.Action == lifecycle.ActionPromoted {
		return nil, resilience.Permanent(errors.New("ext-selfheal: promotion reported but old predictor still serving"))
	}

	// Continued drifted traffic must now look healthy to the new model.
	if err := replayRound(true); err != nil {
		return nil, err
	}
	staleAfter := staleIDs()

	// Reject: an over-correcting candidate (5× vs the 1.8× world) must
	// lose the canary and roll back without touching serving or store.
	collectFactor = selfhealOverFactor
	reject, err := mgr.ForceRetrain(context.Background(), victims)
	if err != nil {
		return nil, err
	}
	keptServing := sharded.Snapshot() == served

	// Survive: crash debris and corruption against the store.
	curBefore, _ := st.Current()
	raw, err := repo.Read("sn-" + curBefore.Fingerprint + ".json")
	if err != nil {
		return nil, err
	}
	repo.Put("sn-0000000000000000.json.tmp", raw[:len(raw)/3]) // torn write from a killed publish
	reopened, err := store.New(repo)
	if err != nil {
		return nil, err
	}
	crashRep := reopened.Report()
	afterCrash, _ := reopened.Current()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	repo.Put("sn-"+curBefore.Fingerprint+".json", flipped)
	recovered, err := store.New(repo)
	if err != nil {
		return nil, err
	}
	corruptRep := recovered.Report()
	afterCorrupt, _ := recovered.Current()

	// Event tally from the lifecycle observer.
	var staleEvents, promoteEvents, rollbackEvents, publishEvents int
	for _, ev := range rec.Events() {
		switch ev.Span {
		case obs.PointLifecycleStale:
			staleEvents++
		case obs.PointLifecyclePromote:
			promoteEvents++
		case obs.PointLifecycleRollback:
			rollbackEvents++
		case obs.PointStorePublish:
			publishEvents++
		}
	}

	// How targeted was the re-collection? Recollect succeeded, so the
	// campaign kept full coverage and its samples are the whole design.
	totalMixes, touchedMixes := 0, 0
	for _, mpl := range mpls {
		for _, s := range e.Samples[mpl] {
			totalMixes++
			if touches(s.Mix, victimSet) {
				touchedMixes++
			}
		}
	}

	res := &Result{
		ID:     "ext-selfheal",
		Title:  "Extension §8 — self-healing knowledge lifecycle",
		Paper:  "beyond the paper: drift detection closed into targeted re-collection, canary-gated hot-swap, and a versioned store",
		Header: []string{"phase", "action", "templates", "old MRE", "new MRE", "version", "detail"},
	}
	res.AddRow("detect", "stale", fmtIDs(detected), "-", "-", shortFP(v1),
		fmt.Sprintf("%.1f× victim slowdown after %d clean rounds", qualityShiftFactor, qualityHealthyRounds))
	res.AddRow("heal", string(heal.Action), fmtIDs(heal.Stale), fmtPct(heal.OldMRE), fmtPct(heal.NewMRE), shortFP(heal.Version),
		fmt.Sprintf("re-collected %d of %d mixes + %d profiles, zero-downtime swap", touchedMixes, totalMixes, len(victims)))
	res.AddRow("settle", "observe", fmtIDs(staleAfter), "-", "-", shortFP(heal.Version),
		"drifted traffic healthy on the new model; trackers reset")
	res.AddRow("reject", string(reject.Action), fmtIDs(reject.Stale), fmtPct(reject.OldMRE), fmtPct(reject.NewMRE), shortFP(curBefore),
		fmt.Sprintf("%.0f× over-corrected candidate loses the canary", selfhealOverFactor))
	res.AddRow("crash", "recover", "-", "-", "-", shortFP(afterCrash),
		fmt.Sprintf("swept %d torn tmp, no version loss", len(crashRep.RemovedTemp)))
	res.AddRow("corrupt", "fallback", "-", "-", "-", shortFP(afterCorrupt),
		fmt.Sprintf("checksum caught bit flip in %s; serving previous version", shortFP(curBefore)))

	res.SetMetric("victims", float64(len(victims)))
	res.SetMetric("stale_detected", float64(len(detected)))
	res.SetMetric("stale_after_heal", float64(len(staleAfter)))
	res.SetMetric("promotions", float64(promoteEvents))
	res.SetMetric("rollbacks", float64(rollbackEvents))
	res.SetMetric("stale_events", float64(staleEvents))
	res.SetMetric("store_publishes", float64(publishEvents))
	res.SetMetric("store_versions", float64(st.Len()))
	res.SetMetric("remeasured_mixes", float64(touchedMixes))
	res.SetMetric("total_mixes", float64(totalMixes))
	res.SetMetric("canary_samples", float64(heal.Samples))
	res.SetMetric("kept_serving_after_rollback", b2f(keptServing))
	res.SetMetric("crash_tmp_swept", float64(len(crashRep.RemovedTemp)))
	res.SetMetric("corrupt_versions", float64(len(corruptRep.CorruptVersions)))
	res.SetMetric("fell_back", b2f(corruptRep.FellBackTo == v1.Fingerprint))
	res.Notes = append(res.Notes,
		fmt.Sprintf("victims %s drift stale, are re-collected alone (%d of %d mixes touched), and heal through a canary-gated hot-swap",
			fmtIDs(victims), touchedMixes, totalMixes),
		"store versions are content-fingerprinted with checksums; torn writes sweep clean and bit rot falls back a version",
	)
	return res, nil
}

// shortFP abbreviates a store version for table cells.
func shortFP(v store.Version) string {
	if v.IsZero() {
		return "-"
	}
	return fmt.Sprintf("v%d:%s", v.Seq, v.Fingerprint[:8])
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
