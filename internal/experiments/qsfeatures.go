package experiments

import (
	"fmt"

	"contender/internal/core"
	"contender/internal/stats"
)

// ExtQSFeatures ablates the µ-estimation step of the Unknown-QS transfer
// (Figure 5, step 3). The paper regresses µ on the isolated latency, the
// feature Table 3 found best on its testbed; on this substrate that
// correlation is weak (see EXPERIMENTS.md), so this experiment asks which
// isolated-statistics estimator actually transfers µ best here:
//
//   - Isolated latency — the paper's choice;
//   - I/O fraction — p_t as the single regressor;
//   - Spoiler slowdown — the best-correlated feature on this substrate
//     (requires the template's spoiler latency, i.e. linear-time
//     sampling rather than constant);
//   - Multi-feature OLS — (l_min, p_t, working set) jointly;
//   - Mean-µ prior — no feature at all (the degenerate fallback).
//
// In every variant the intercept b then comes from the b↔µ relation
// (Figure 4) and the latency is scaled on the measured continuum, so the
// comparison isolates the µ-estimation step.
func ExtQSFeatures(env *Env) (*Result, error) {
	type estimator struct {
		name string
		// estimate µ for a held-out template from training-fold data.
		fit func(train []int, models map[int]core.QSModel, mpl int) (func(core.TemplateStats) float64, error)
	}

	single := func(get func(core.TemplateStats, int) float64) func([]int, map[int]core.QSModel, int) (func(core.TemplateStats) float64, error) {
		return func(train []int, models map[int]core.QSModel, mpl int) (func(core.TemplateStats) float64, error) {
			var xs, mus []float64
			for _, id := range train {
				m, ok := models[id]
				if !ok {
					continue
				}
				xs = append(xs, get(must(template(env.Know, id)), mpl))
				mus = append(mus, m.Mu)
			}
			fit, err := stats.FitLinear(xs, mus)
			if err != nil {
				return nil, err
			}
			return func(t core.TemplateStats) float64 { return fit.Predict(get(t, mpl)) }, nil
		}
	}

	estimators := []estimator{
		{"Isolated latency (paper)", single(func(t core.TemplateStats, _ int) float64 { return t.IsolatedLatency })},
		{"I/O fraction", single(func(t core.TemplateStats, _ int) float64 { return t.IOFraction })},
		{"Spoiler slowdown", single(func(t core.TemplateStats, mpl int) float64 { return t.SpoilerSlowdown(mpl) })},
		{"Multi-feature OLS", func(train []int, models map[int]core.QSModel, mpl int) (func(core.TemplateStats) float64, error) {
			var xs [][]float64
			var mus []float64
			for _, id := range train {
				m, ok := models[id]
				if !ok {
					continue
				}
				t := must(template(env.Know, id))
				xs = append(xs, []float64{t.IsolatedLatency, t.IOFraction, t.WorkingSetBytes})
				mus = append(mus, m.Mu)
			}
			fit, err := stats.FitMultiLinear(xs, mus)
			if err != nil {
				return nil, err
			}
			return func(t core.TemplateStats) float64 {
				return fit.Predict([]float64{t.IsolatedLatency, t.IOFraction, t.WorkingSetBytes})
			}, nil
		}},
		{"Mean-µ prior", func(train []int, models map[int]core.QSModel, _ int) (func(core.TemplateStats) float64, error) {
			var mus []float64
			for _, id := range train {
				if m, ok := models[id]; ok {
					mus = append(mus, m.Mu)
				}
			}
			mean := stats.Mean(mus)
			return func(core.TemplateStats) float64 { return mean }, nil
		}},
	}

	res := &Result{
		ID:     "ext-qsfeatures",
		Title:  "Ablation — µ-estimation features for unknown templates",
		Paper:  "the paper uses isolated latency (its Table 3 winner); this substrate's Table 3 winner is spoiler slowdown",
		Header: []string{"µ estimator", "MRE (MPL 2-5)"},
	}

	errsByName := make(map[string][]float64)
	ids := env.TemplateIDs()
	for _, mpl := range env.sortedMPLs() {
		models, err := fitQSModels(env, mpl)
		if err != nil {
			return nil, err
		}
		for _, fold := range stats.KFold(len(ids), 5, env.Opts.Seed+int64(400+mpl)) {
			train := make([]int, len(fold.Train))
			for i, j := range fold.Train {
				train[i] = ids[j]
			}
			kept := make(map[int]core.QSModel, len(train))
			for _, id := range train {
				if m, ok := models[id]; ok {
					kept[id] = m
				}
			}
			refs := core.NewReferenceModels(env.Know, mpl, kept)
			for _, est := range estimators {
				muOf, err := est.fit(train, models, mpl)
				if err != nil {
					return nil, fmt.Errorf("experiments: estimator %q: %w", est.name, err)
				}
				for _, j := range fold.Test {
					id := ids[j]
					cont, ok := env.Know.ContinuumFor(id, mpl)
					if !ok {
						continue
					}
					t := must(template(env.Know, id))
					qs, err := refs.EstimateInterceptFromMu(muOf(t))
					if err != nil {
						return nil, err
					}
					var obsL, pred []float64
					for _, o := range env.ObservationsFor(mpl, id) {
						if cont.IsOutlier(o.Latency) {
							continue
						}
						r := must(env.Know.CQI(o.Primary, o.Concurrent))
						obsL = append(obsL, o.Latency)
						pred = append(pred, cont.Latency(qs.Point(r)))
					}
					if len(obsL) > 0 {
						errsByName[est.name] = append(errsByName[est.name], stats.MRE(obsL, pred))
					}
				}
			}
		}
	}
	for _, est := range estimators {
		mre := stats.Mean(errsByName[est.name])
		res.AddRow(est.name, fmtPct(mre))
		res.SetMetric("mre/"+est.name, mre)
	}
	res.Notes = append(res.Notes,
		"spoiler slowdown requires linear-time sampling of the new template; all others are constant-time")
	return res, nil
}
