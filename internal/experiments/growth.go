package experiments

import (
	"fmt"

	"contender/internal/core"
	"contender/internal/lhs"
	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/stats"
	"contender/internal/tpcds"
)

// ExtGrowth implements the paper's Section-8 future-work direction:
// predicting query performance on an expanding database. The predictor is
// trained once at the original scale; the database then grows by
// GrowthFactor (accumulated writes). Three approaches predict latencies of
// mixes running on the grown database, validated against fresh steady-state
// simulation at the new scale:
//
//   - Stale: reuse the original predictor unchanged (what a deployment
//     that never retrains would do).
//   - Scaled (Contender): analytically scale the knowledge base
//     (core.ScaleKnowledge), estimate each template's QS model from its
//     scaled isolated latency, and predict its spoiler with KNN — zero
//     sample executions at the new scale.
//   - Oracle isolated: like Scaled, but with isolated latencies measured
//     at the new scale (one run per template), bounding how much of the
//     remaining error is due to the analytic scaling itself.
const GrowthFactor = 1.5

// growthMixCount is how many sampled mixes per MPL the validation uses.
const growthMixCount = 20

// ExtGrowth runs the expanding-database extension experiment.
func ExtGrowth(env *Env) (*Result, error) {
	res := &Result{
		ID:     "ext-growth",
		Title:  fmt.Sprintf("Extension §8 — expanding database (×%.2f growth)", GrowthFactor),
		Paper:  "future work in the paper; Contender's statistics-based inputs make the extension analytic",
		Header: []string{"MPL", "Stale predictor", "Contender scaled", "Oracle isolated"},
	}

	// Ground truth: the grown workload on a fresh engine.
	grown := env.Workload.Scaled(GrowthFactor)
	cfg := env.Engine.Config()
	cfg.Seed = env.Opts.Seed + 1000
	truthEngine := sim.NewEngine(cfg)

	// Contender's analytic view of the grown database.
	scaledKnow := core.ScaleKnowledge(env.Know, GrowthFactor)
	knn, err := core.NewKNNSpoilerPredictor(env.Know, 3)
	if err != nil {
		return nil, err
	}

	// Oracle isolated latencies at the new scale (one run per template).
	oracle := scaledKnow.Templates()
	for _, id := range grown.IDs() {
		iso, err := truthEngine.RunIsolated(grown.MustSpec(id))
		if err != nil {
			return nil, err
		}
		ts := must(template(scaledKnow, id))
		ts.IsolatedLatency = iso.Latency
		ts.IOFraction = iso.IOFraction()
		oracle = append(oracle, ts)
	}
	oracleKnow := core.NewKnowledge(scaledKnow.ScanTimes(), oracle)

	ids := env.TemplateIDs()
	staleAll, scaledAll, oracleAll := []float64{}, []float64{}, []float64{}
	for _, mpl := range []int{2, 3} {
		models, err := fitQSModels(env, mpl)
		if err != nil {
			return nil, err
		}
		refsFor := func(know *core.Knowledge) *core.ReferenceModels {
			return core.NewReferenceModels(know, mpl, models)
		}
		staleRefs, scaledRefs, oracleRefs := refsFor(env.Know), refsFor(scaledKnow), refsFor(oracleKnow)
		mixes := lhs.SampleDisjoint(len(ids), mpl, 4, env.Opts.Seed+int64(77*mpl))
		if len(mixes) > growthMixCount {
			mixes = mixes[:growthMixCount]
		}
		var staleErr, scaledErr, oracleErr []float64
		for _, mix := range mixes {
			idMix := make([]int, len(mix))
			specs := make([]sim.QuerySpec, len(mix))
			for i, idx := range mix {
				idMix[i] = ids[idx]
				specs[i] = grown.MustSpec(ids[idx])
			}
			truth, err := truthEngine.RunSteadyState(specs, sim.SteadyStateOptions{
				Samples: 3, WarmupSkip: 1, RestartCost: tpcds.RestartCost(),
			})
			if err != nil {
				return nil, err
			}
			for slot, primary := range idMix {
				concurrent := append(append([]int{}, idMix[:slot]...), idMix[slot+1:]...)
				observed := truth.MeanLatency(slot)

				stale, err := predictGrown(env.Know, staleRefs, knn, primary, concurrent, mpl)
				if err != nil {
					return nil, err
				}
				scaled, err := predictGrown(scaledKnow, scaledRefs, knn, primary, concurrent, mpl)
				if err != nil {
					return nil, err
				}
				oracle, err := predictGrown(oracleKnow, oracleRefs, knn, primary, concurrent, mpl)
				if err != nil {
					return nil, err
				}
				staleErr = append(staleErr, stats.RelativeError(observed, stale))
				scaledErr = append(scaledErr, stats.RelativeError(observed, scaled))
				oracleErr = append(oracleErr, stats.RelativeError(observed, oracle))
			}
		}
		res.AddRow(fmt.Sprintf("%d", mpl),
			fmtPct(stats.Mean(staleErr)), fmtPct(stats.Mean(scaledErr)), fmtPct(stats.Mean(oracleErr)))
		res.SetMetric(fmt.Sprintf("stale/mpl%d", mpl), stats.Mean(staleErr))
		res.SetMetric(fmt.Sprintf("scaled/mpl%d", mpl), stats.Mean(scaledErr))
		res.SetMetric(fmt.Sprintf("oracle/mpl%d", mpl), stats.Mean(oracleErr))
		staleAll = append(staleAll, stats.Mean(staleErr))
		scaledAll = append(scaledAll, stats.Mean(scaledErr))
		oracleAll = append(oracleAll, stats.Mean(oracleErr))
	}
	res.AddRow("Avg", fmtPct(stats.Mean(staleAll)), fmtPct(stats.Mean(scaledAll)), fmtPct(stats.Mean(oracleAll)))
	res.SetMetric("stale/avg", stats.Mean(staleAll))
	res.SetMetric("scaled/avg", stats.Mean(scaledAll))
	res.SetMetric("oracle/avg", stats.Mean(oracleAll))
	res.Notes = append(res.Notes,
		"Scaled and Oracle use the new-template path (estimated QS, KNN spoiler) with zero concurrent samples at the new scale")
	return res, nil
}

// predictGrown runs the full new-template pipeline for a primary at the
// grown scale against the given knowledge view. Reference QS models come
// from the original-scale training; continuum points are scale-free, so
// the transfer carries over.
func predictGrown(know *core.Knowledge, refs *core.ReferenceModels, knn *core.KNNSpoilerPredictor, primary int, concurrent []int, mpl int) (float64, error) {
	t := must(template(know, primary))
	qs, err := refs.EstimateForNew(t.IsolatedLatency)
	if err != nil {
		return 0, err
	}
	lmax, err := core.PredictSpoilerLatency(knn, t, mpl)
	if err != nil {
		return 0, err
	}
	cont := core.Continuum{Min: t.IsolatedLatency, Max: lmax}
	if !cont.Valid() {
		return 0, resilience.Corruptf("experiments: degenerate grown continuum for T%d", primary)
	}
	return cont.Latency(qs.Point(must(know.CQIForStats(t, concurrent)))), nil
}
