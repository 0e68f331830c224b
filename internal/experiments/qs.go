package experiments

import (
	"fmt"
	"math"

	"contender/internal/core"
	"contender/internal/stats"
)

// This file reproduces the Query Sensitivity studies: Figure 4 (coefficient
// relationship), Table 3 (feature correlations), and Figure 8 (prediction
// accuracy for known and unknown templates).

// fitQSModels fits one QS model per template at one MPL from all its
// observations, dropping continuum outliers as the paper does.
func fitQSModels(env *Env, mpl int) (map[int]core.QSModel, error) {
	out := make(map[int]core.QSModel)
	for _, id := range env.TemplateIDs() {
		m, err := fitQSFor(env, mpl, id, nil)
		if err != nil {
			continue
		}
		out[id] = m
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: %w: no QS models could be fitted at MPL %d", core.ErrUntrainedMPL, mpl)
	}
	return out, nil
}

// fitQSFor fits a QS model for one template, optionally restricted to a
// subset of its observations (obsIdx indexes into ObservationsFor's order;
// nil means all).
func fitQSFor(env *Env, mpl, id int, obsIdx []int) (core.QSModel, error) {
	obs := env.ObservationsFor(mpl, id)
	cont, ok := env.Know.ContinuumFor(id, mpl)
	if !ok {
		return core.QSModel{}, fmt.Errorf("experiments: %w: no continuum for T%d at MPL %d", core.ErrUntrainedMPL, id, mpl)
	}
	use := obs
	if obsIdx != nil {
		use = make([]core.Observation, len(obsIdx))
		for i, j := range obsIdx {
			use[i] = obs[j]
		}
	}
	var rs, cs []float64
	for _, o := range use {
		if cont.IsOutlier(o.Latency) {
			continue
		}
		rs = append(rs, must(env.Know.CQI(o.Primary, o.Concurrent)))
		cs = append(cs, cont.Point(o.Latency))
	}
	return core.FitQS(rs, cs)
}

// referenceSet assembles a ReferenceModels from fitted QS models,
// excluding the given template IDs (for leave-out protocols).
func referenceSet(env *Env, mpl int, models map[int]core.QSModel, exclude map[int]bool) *core.ReferenceModels {
	kept := make(map[int]core.QSModel, len(models))
	for id, m := range models {
		if !exclude[id] {
			kept[id] = m
		}
	}
	return core.NewReferenceModels(env.Know, mpl, kept)
}

// Fig4 reproduces Figure 4: the linear relationship between QS slopes and
// y-intercepts at MPL 2.
func Fig4(env *Env) (*Result, error) {
	const mpl = 2
	models, err := fitQSModels(env, mpl)
	if err != nil {
		return nil, err
	}
	refs := referenceSet(env, mpl, models, nil)
	fit, r2, err := refs.CoefficientRelation()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig4",
		Title:  "QS coefficient relationship at MPL 2",
		Paper:  "y-intercept and slope lie close to a common trend line (R² ≈ 0.67); negative intercepts mark templates sped up by sharing",
		Header: []string{"Template", "slope µ", "intercept b"},
	}
	negIntercepts := 0
	for _, id := range refs.IDs() {
		m, _ := refs.Model(id)
		res.AddRow(fmt.Sprintf("%d", id), fmtF(m.Mu), fmtF(m.B))
		if m.B < 0 {
			negIntercepts++
		}
	}
	res.AddRow("trend", fmt.Sprintf("b = %.3f·µ + %.3f", fit.Slope, fit.Intercept), fmt.Sprintf("R²=%.3f", r2))
	res.SetMetric("r2", r2)
	res.SetMetric("trend/slope", fit.Slope)
	res.SetMetric("negative-intercepts", float64(negIntercepts))
	return res, nil
}

// Table3 reproduces Table 3: signed R² of linear regressions correlating
// template features with the QS coefficients at MPL 2. Following the
// paper's presentation, R² carries the sign of the correlation.
func Table3(env *Env) (*Result, error) {
	const mpl = 2
	models, err := fitQSModels(env, mpl)
	if err != nil {
		return nil, err
	}

	type feature struct {
		name string
		get  func(core.TemplateStats) float64
	}
	features := []feature{
		{"% execution time spent on I/O", func(t core.TemplateStats) float64 { return t.IOFraction }},
		{"Max working set", func(t core.TemplateStats) float64 { return t.WorkingSetBytes }},
		{"Query plan steps", func(t core.TemplateStats) float64 { return float64(t.PlanSteps) }},
		{"Records accessed", func(t core.TemplateStats) float64 { return t.RecordsAccessed }},
		{"Isolated latency", func(t core.TemplateStats) float64 { return t.IsolatedLatency }},
		{"Spoiler latency", func(t core.TemplateStats) float64 { return t.SpoilerLatency[mpl] }},
		{"Spoiler slowdown", func(t core.TemplateStats) float64 { return t.SpoilerSlowdown(mpl) }},
	}

	var ids []int
	var mus, bs []float64
	for _, id := range env.TemplateIDs() {
		if m, ok := models[id]; ok {
			ids = append(ids, id)
			mus = append(mus, m.Mu)
			bs = append(bs, m.B)
		}
	}

	res := &Result{
		ID:     "table3",
		Title:  "Signed R² of template features vs. QS coefficients (MPL 2)",
		Paper:  "isolated latency correlates best: b 0.36, µ −0.51; fine-grained features (I/O time, working set, plan steps, records) correlate poorly",
		Header: []string{"Feature", "Y-intercept b", "Slope µ"},
	}
	for _, f := range features {
		xs := make([]float64, len(ids))
		for i, id := range ids {
			xs[i] = f.get(must(template(env.Know, id)))
		}
		r2b := signedR2(xs, bs)
		r2mu := signedR2(xs, mus)
		res.AddRow(f.name, fmtF(r2b), fmtF(r2mu))
		res.SetMetric("b/"+f.name, r2b)
		res.SetMetric("mu/"+f.name, r2mu)
	}
	return res, nil
}

// signedR2 is R² of the univariate fit carrying the correlation's sign.
func signedR2(xs, ys []float64) float64 {
	r2 := stats.LinearR2(xs, ys)
	if stats.Pearson(xs, ys) < 0 {
		return -r2
	}
	return r2
}

// Fig8 reproduces Figure 8: latency MRE at MPLs 2–5 for Known-Templates
// (QS models fitted on the template's own sampled mixes, k-fold CV),
// Unknown-Y (µ from the template's own model, b transferred from the
// coefficient relationship), and Unknown-QS (full QS model estimated from
// isolated latency alone — Contender's ad-hoc path).
func Fig8(env *Env) (*Result, error) {
	res := &Result{
		ID:     "fig8",
		Title:  "Latency MRE for known and unknown templates",
		Paper:  "Known 19%, Unknown-Y 23%, Unknown-QS 25% on average",
		Header: []string{"MPL", "Known-Templates", "Unknown-Y", "Unknown-QS"},
	}
	var knownAll, unkYAll, unkQSAll []float64
	for _, mpl := range env.sortedMPLs() {
		known := fig8Known(env, mpl)
		unkY, unkQS, err := fig8Unknown(env, mpl)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("%d", mpl), fmtPct(known), fmtPct(unkY), fmtPct(unkQS))
		res.SetMetric(fmt.Sprintf("known/mpl%d", mpl), known)
		res.SetMetric(fmt.Sprintf("unknown-y/mpl%d", mpl), unkY)
		res.SetMetric(fmt.Sprintf("unknown-qs/mpl%d", mpl), unkQS)
		knownAll = append(knownAll, known)
		unkYAll = append(unkYAll, unkY)
		unkQSAll = append(unkQSAll, unkQS)
	}
	res.AddRow("Avg", fmtPct(stats.Mean(knownAll)), fmtPct(stats.Mean(unkYAll)), fmtPct(stats.Mean(unkQSAll)))
	res.SetMetric("known/avg", stats.Mean(knownAll))
	res.SetMetric("unknown-y/avg", stats.Mean(unkYAll))
	res.SetMetric("unknown-qs/avg", stats.Mean(unkQSAll))
	return res, nil
}

// fig8Known: per template, 5-fold CV over its observations; QS fitted on
// the train folds predicts the held-out mixes.
func fig8Known(env *Env, mpl int) float64 {
	var errs []float64
	for _, id := range env.TemplateIDs() {
		obs := env.ObservationsFor(mpl, id)
		cont, ok := env.Know.ContinuumFor(id, mpl)
		if !ok || len(obs) < 5 {
			continue
		}
		var observed, predicted []float64
		for _, f := range stats.KFold(len(obs), 5, env.Opts.Seed+int64(100+id)) {
			m, err := fitQSFor(env, mpl, id, f.Train)
			if err != nil {
				continue
			}
			for _, i := range f.Test {
				o := obs[i]
				if cont.IsOutlier(o.Latency) {
					continue
				}
				r := must(env.Know.CQI(o.Primary, o.Concurrent))
				observed = append(observed, o.Latency)
				predicted = append(predicted, cont.Latency(m.Point(r)))
			}
		}
		if len(observed) > 0 {
			errs = append(errs, stats.MRE(observed, predicted))
		}
	}
	return stats.Mean(errs)
}

// fig8Unknown: 5-fold CV over *templates* — train reference models on the
// in-fold templates, estimate QS for the held-out ones, predict their
// observations. Spoiler latencies are measured (predicted spoilers are
// Figure 10's subject).
func fig8Unknown(env *Env, mpl int) (unkY, unkQS float64, err error) {
	models, err := fitQSModels(env, mpl)
	if err != nil {
		return 0, 0, err
	}
	ids := env.TemplateIDs()
	var errsY, errsQS []float64
	for _, fold := range stats.KFold(len(ids), 5, env.Opts.Seed+int64(200+mpl)) {
		exclude := make(map[int]bool)
		for _, i := range fold.Test {
			exclude[ids[i]] = true
		}
		refs := referenceSet(env, mpl, models, exclude)
		for _, i := range fold.Test {
			id := ids[i]
			own, ok := models[id]
			if !ok {
				continue
			}
			cont, ok := env.Know.ContinuumFor(id, mpl)
			if !ok {
				continue
			}
			t := must(template(env.Know, id))

			qsNew, errN := refs.EstimateForNew(t.IsolatedLatency)
			if errN != nil {
				return 0, 0, errN
			}
			qsY, errN := refs.EstimateInterceptFromMu(own.Mu)
			if errN != nil {
				return 0, 0, errN
			}

			var obsL, predY, predQS []float64
			for _, o := range env.ObservationsFor(mpl, id) {
				if cont.IsOutlier(o.Latency) {
					continue
				}
				r := must(env.Know.CQI(o.Primary, o.Concurrent))
				obsL = append(obsL, o.Latency)
				predY = append(predY, cont.Latency(qsY.Point(r)))
				predQS = append(predQS, cont.Latency(qsNew.Point(r)))
			}
			if len(obsL) > 0 {
				errsY = append(errsY, stats.MRE(obsL, predY))
				errsQS = append(errsQS, stats.MRE(obsL, predQS))
			}
		}
	}
	if len(errsY) == 0 {
		return math.NaN(), math.NaN(), fmt.Errorf("experiments: %w: no unknown-template predictions at MPL %d", core.ErrUntrainedMPL, mpl)
	}
	return stats.Mean(errsY), stats.Mean(errsQS), nil
}
