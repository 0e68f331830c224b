package experiments

import (
	"fmt"

	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/stats"
)

// ExtNoise quantifies how Contender's accuracy tracks the substrate's
// measurement variance. EXPERIMENTS.md attributes the gap between our
// absolute errors and the paper's to the simulator's lower residual noise;
// this ablation makes that claim measurable: the known-template CQI model
// is evaluated on hosts whose noise levels are scaled from 0× to 3× the
// default. Errors should grow roughly monotonically with the noise while
// the model stays unbiased.
func ExtNoise(env *Env) (*Result, error) {
	res := &Result{
		ID:     "ext-noise",
		Title:  "Ablation — prediction error vs. substrate noise",
		Paper:  "explains the absolute-error gap to the paper: MRE scales with the host's residual variance",
		Header: []string{"Noise scale", "Known-template MRE (MPL 2)"},
	}
	for _, scale := range []float64{0, 0.5, 1, 2, 3} {
		cfg := sim.DefaultConfig()
		cfg.SeqNoise *= scale
		cfg.RandNoise *= scale
		cfg.CPUNoise *= scale
		cfg.InstanceNoise *= scale
		noisyEnv, err := NewEnvWith(env.Workload, Options{
			MPLs:          []int{2},
			LHSRuns:       1,
			SteadySamples: 3,
			IsolatedRuns:  2,
			Seed:          env.Opts.Seed + int64(1000*scale) + 7,
			Config:        &cfg,
			Workers:       env.Opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: noise scale %g: %w", scale, err)
		}
		errs := cqiTemplateErrors(noisyEnv, variants()[2], 2, 5)
		mre := meanOfMap(errs)
		res.AddRow(fmt.Sprintf("%.1fx", scale), fmtPct(mre))
		res.SetMetric(fmt.Sprintf("mre/%.1fx", scale), mre)
	}
	res.Notes = append(res.Notes,
		"each row profiles and samples a fresh host whose log-normal noise sigmas are scaled by the factor")
	return res, nil
}

// ExtCrossMPL measures how MPL-specific the QS models are: a model trained
// at one multiprogramming level predicts observations at another (using
// the target MPL's continuum, so only the (µ, b) transfer is tested). The
// paper trains one model per MPL; this ablation shows what that buys.
func ExtCrossMPL(env *Env) (*Result, error) {
	mpls := env.sortedMPLs()
	if len(mpls) < 2 {
		return nil, resilience.Permanent(fmt.Errorf("experiments: cross-MPL needs ≥2 sampled MPLs"))
	}
	models := make(map[int]map[int]struct {
		Mu, B float64
	})
	for _, mpl := range mpls {
		fitted, err := fitQSModels(env, mpl)
		if err != nil {
			return nil, err
		}
		m := make(map[int]struct{ Mu, B float64 })
		for id, qs := range fitted {
			m[id] = struct{ Mu, B float64 }{qs.Mu, qs.B}
		}
		models[mpl] = m
	}

	res := &Result{
		ID:     "ext-crossmpl",
		Title:  "Ablation — QS models across multiprogramming levels",
		Paper:  "the paper trains one QS model per MPL; this quantifies the cost of reusing a model at a different MPL",
		Header: append([]string{"train \\ test"}, mplHeaders(mpls)...),
	}
	for _, trainMPL := range mpls {
		row := []string{fmt.Sprintf("MPL %d", trainMPL)}
		for _, testMPL := range mpls {
			var errs []float64
			for _, id := range env.TemplateIDs() {
				qs, ok := models[trainMPL][id]
				if !ok {
					continue
				}
				cont, ok := env.Know.ContinuumFor(id, testMPL)
				if !ok {
					continue
				}
				var obsL, pred []float64
				for _, o := range env.ObservationsFor(testMPL, id) {
					if cont.IsOutlier(o.Latency) {
						continue
					}
					r := must(env.Know.CQI(o.Primary, o.Concurrent))
					obsL = append(obsL, o.Latency)
					pred = append(pred, cont.Latency(qs.Mu*r+qs.B))
				}
				if len(obsL) > 0 {
					errs = append(errs, stats.MRE(obsL, pred))
				}
			}
			mre := stats.Mean(errs)
			row = append(row, fmtPct(mre))
			res.SetMetric(fmt.Sprintf("train%d/test%d", trainMPL, testMPL), mre)
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"the target MPL's measured continuum is always used; only the fitted (µ, b) cross levels")
	return res, nil
}

func mplHeaders(mpls []int) []string {
	out := make([]string, len(mpls))
	for i, m := range mpls {
		out[i] = fmt.Sprintf("MPL %d", m)
	}
	return out
}
