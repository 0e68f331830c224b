package experiments

import (
	"fmt"

	"contender/internal/core"
	"contender/internal/stats"
)

// This file reproduces Table 2 and Figure 7: per-template linear models
// that predict the primary's latency directly from an intensity metric
// (Baseline I/O, Positive I/O, or full CQI), evaluated with k-fold
// cross-validation over the sampled mixes.

// intensityVariant names one of the Table 2 metrics.
type intensityVariant struct {
	name string
	eval func(k *core.Knowledge, primary int, concurrent []int) float64
}

func variants() []intensityVariant {
	return []intensityVariant{
		{"Baseline I/O", func(k *core.Knowledge, _ int, c []int) float64 { return must(k.BaselineIO(c)) }},
		{"Positive I/O", func(k *core.Knowledge, p int, c []int) float64 { return must(k.PositiveIO(p, c)) }},
		{"CQI", func(k *core.Knowledge, p int, c []int) float64 { return must(k.CQI(p, c)) }},
	}
}

// cqiTemplateErrors runs the k-fold CV protocol for one variant at one MPL
// and returns the per-template mean relative error.
func cqiTemplateErrors(env *Env, v intensityVariant, mpl, folds int) map[int]float64 {
	out := make(map[int]float64)
	for _, id := range env.TemplateIDs() {
		obs := env.ObservationsFor(mpl, id)
		if len(obs) < folds {
			continue
		}
		xs := make([]float64, len(obs))
		ys := make([]float64, len(obs))
		for i, o := range obs {
			xs[i] = v.eval(env.Know, o.Primary, o.Concurrent)
			ys[i] = o.Latency
		}
		var observed, predicted []float64
		for _, f := range stats.KFold(len(obs), folds, env.Opts.Seed+int64(id)) {
			trainX := pick(xs, f.Train)
			trainY := pick(ys, f.Train)
			fit, err := stats.FitLinear(trainX, trainY)
			if err != nil {
				continue
			}
			for _, i := range f.Test {
				observed = append(observed, ys[i])
				predicted = append(predicted, fit.Predict(xs[i]))
			}
		}
		if len(observed) > 0 {
			out[id] = stats.MRE(observed, predicted)
		}
	}
	return out
}

func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

func meanOfMap(m map[int]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	var s float64
	for _, v := range m {
		s += v
	}
	return s / float64(len(m))
}

// Table2 reproduces Table 2: mean relative error of latency prediction
// from each intensity metric over MPLs 2–5.
func Table2(env *Env) (*Result, error) {
	res := &Result{
		ID:     "table2",
		Title:  "MRE of intensity-metric latency prediction, MPL 2-5",
		Paper:  "Baseline I/O 25.4%, Positive I/O 20.4%, CQI 20.2%",
		Header: []string{"Metric", "MRE (MPL 2-5)"},
	}
	const folds = 5
	for _, v := range variants() {
		var all []float64
		for _, mpl := range env.sortedMPLs() {
			for _, e := range cqiTemplateErrors(env, v, mpl, folds) {
				all = append(all, e)
			}
		}
		mre := stats.Mean(all)
		res.AddRow(v.name, fmtPct(mre))
		res.SetMetric("mre/"+v.name, mre)
	}
	res.Notes = append(res.Notes,
		"one linear model per template per MPL; 5-fold CV over sampled mixes")
	return res, nil
}

// Fig7 reproduces Figure 7: the per-template relative error of the
// CQI-only latency model at MPL 4.
func Fig7(env *Env) (*Result, error) {
	const mpl = 4
	if len(env.Samples[mpl]) == 0 {
		return nil, fmt.Errorf("experiments: %w: no samples at MPL %d", core.ErrUntrainedMPL, mpl)
	}
	v := variants()[2] // CQI
	errs := cqiTemplateErrors(env, v, mpl, 5)

	res := &Result{
		ID:     "fig7",
		Title:  "Per-template error of the CQI model at MPL 4",
		Paper:  "19% average; ≤10% for extremely I/O-bound templates; ≈23% for random-I/O templates; memory-intensive templates worst",
		Header: []string{"Template", "Rel. error", "Class"},
	}
	classOf := func(id int) string {
		switch id {
		case 26, 33, 61, 71:
			return "I/O-bound"
		case 17, 25, 32:
			return "random I/O"
		case 2, 22:
			return "memory"
		case 62, 65:
			return "CPU-heavy"
		}
		return ""
	}
	avg := meanOfMap(errs)
	res.AddRow("Avg", fmtPct(avg), "")
	res.SetMetric("mre/avg", avg)

	var ioErrs, randErrs, memErrs []float64
	for _, id := range env.TemplateIDs() {
		e, ok := errs[id]
		if !ok {
			continue
		}
		class := classOf(id)
		res.AddRow(fmt.Sprintf("%d", id), fmtPct(e), class)
		switch class {
		case "I/O-bound":
			ioErrs = append(ioErrs, e)
		case "random I/O":
			randErrs = append(randErrs, e)
		case "memory":
			memErrs = append(memErrs, e)
		}
	}
	res.SetMetric("mre/io-bound", stats.Mean(ioErrs))
	res.SetMetric("mre/random-io", stats.Mean(randErrs))
	res.SetMetric("mre/memory", stats.Mean(memErrs))
	return res, nil
}
