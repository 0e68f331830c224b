package experiments

import (
	"fmt"

	"contender/internal/core"
	"contender/internal/stats"
)

// ExtOpModel evaluates the paper's proposed plan-node-granularity CQPP
// (Section 8 / the Section 3 conclusion) against the learned QS models.
// The operator-level model predicts each stage's concurrent duration
// analytically from the mix's per-competitor intensities — zero concurrent
// training samples — while the QS path learns one model per template from
// sampled mixes. The comparison quantifies what learning buys: the
// analytic model is competitive on I/O-dominated templates but has no way
// to capture memory pressure.
func ExtOpModel(env *Env) (*Result, error) {
	res := &Result{
		ID:     "ext-opmodel",
		Title:  "Extension §8 — operator-granularity CQPP vs. learned QS models",
		Paper:  "future work in the paper (\"explore CQPP at the granularity of individual query execution plan nodes\")",
		Header: []string{"MPL", "QS (learned)", "Operator model (analytic)"},
	}
	om := core.NewOperatorModel(env.Know)

	classOf := func(id int) string {
		switch id {
		case 2, 22:
			return "memory"
		case 26, 33, 61, 71:
			return "io-bound"
		}
		return "other"
	}
	classQS := map[string][]float64{}
	classOM := map[string][]float64{}

	var qsAll, omAll []float64
	for _, mpl := range env.sortedMPLs() {
		models, err := fitQSModels(env, mpl)
		if err != nil {
			return nil, err
		}
		var qsErrs, omErrs []float64
		for _, id := range env.TemplateIDs() {
			qs, ok := models[id]
			if !ok {
				continue
			}
			cont, ok := env.Know.ContinuumFor(id, mpl)
			if !ok {
				continue
			}
			t := must(template(env.Know, id))
			profiles := env.StageProfiles(id)
			var obsL, qsPred, omPred []float64
			for _, o := range env.ObservationsFor(mpl, id) {
				if cont.IsOutlier(o.Latency) {
					continue
				}
				r := must(env.Know.CQI(o.Primary, o.Concurrent))
				op, err := om.Predict(t, profiles, o.Concurrent)
				if err != nil {
					return nil, err
				}
				obsL = append(obsL, o.Latency)
				qsPred = append(qsPred, cont.Latency(qs.Point(r)))
				omPred = append(omPred, op)
			}
			if len(obsL) == 0 {
				continue
			}
			qe := stats.MRE(obsL, qsPred)
			oe := stats.MRE(obsL, omPred)
			qsErrs = append(qsErrs, qe)
			omErrs = append(omErrs, oe)
			c := classOf(id)
			classQS[c] = append(classQS[c], qe)
			classOM[c] = append(classOM[c], oe)
		}
		res.AddRow(fmt.Sprintf("%d", mpl), fmtPct(stats.Mean(qsErrs)), fmtPct(stats.Mean(omErrs)))
		res.SetMetric(fmt.Sprintf("qs/mpl%d", mpl), stats.Mean(qsErrs))
		res.SetMetric(fmt.Sprintf("opmodel/mpl%d", mpl), stats.Mean(omErrs))
		qsAll = append(qsAll, stats.Mean(qsErrs))
		omAll = append(omAll, stats.Mean(omErrs))
	}
	res.AddRow("Avg", fmtPct(stats.Mean(qsAll)), fmtPct(stats.Mean(omAll)))
	res.SetMetric("qs/avg", stats.Mean(qsAll))
	res.SetMetric("opmodel/avg", stats.Mean(omAll))

	for _, c := range []string{"io-bound", "memory", "other"} {
		res.AddRow(c+" templates", fmtPct(stats.Mean(classQS[c])), fmtPct(stats.Mean(classOM[c])))
		res.SetMetric("qs/"+c, stats.Mean(classQS[c]))
		res.SetMetric("opmodel/"+c, stats.Mean(classOM[c]))
	}
	res.Notes = append(res.Notes,
		"the operator model uses zero concurrent training samples; its gap on memory templates is the price of not learning")
	return res, nil
}
