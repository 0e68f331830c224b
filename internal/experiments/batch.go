package experiments

import (
	"fmt"

	"contender/internal/core"
	"contender/internal/resilience"
	"contender/internal/sched"
	"contender/internal/sim"
	"contender/internal/stats"
)

// ExtBatch evaluates the batch-scheduling application of Section 1 on the
// simulator: a 12-query batch executes at MPL 3 under three admission
// policies — FIFO, shortest-job-first, and Contender-driven
// interaction-aware ordering — and the measured makespans are compared.
// The experiment also validates the prediction-driven completion-time
// forecast (à la Ahmad et al. EDBT'11) against the simulated truth.
func ExtBatch(env *Env) (*Result, error) {
	const mpl = 3
	// The batch: a diverse 12-query submission, restricted to templates
	// present in the environment's workload (tests run reduced workloads).
	available := make(map[int]bool)
	for _, id := range env.TemplateIDs() {
		available[id] = true
	}
	var batch []int
	for _, id := range []int{71, 33, 2, 22, 26, 61, 62, 82, 65, 17, 90, 46,
		25, 32, 7, 15, 18, 20} {
		if available[id] {
			batch = append(batch, id)
		}
		if len(batch) == 12 {
			break
		}
	}
	if len(batch) < 4 {
		return nil, resilience.Permanent(fmt.Errorf("experiments: workload too small for the batch experiment"))
	}

	models, err := fitQSModels(env, mpl)
	if err != nil {
		return nil, err
	}
	predict := func(primary int, concurrent []int) (float64, error) {
		if len(concurrent) == 0 {
			return must(template(env.Know, primary)).IsolatedLatency, nil
		}
		// Pad or trim the QS model choice to the trained MPL: predictions
		// for smaller active sets use the same model with the mix's CQI,
		// scaled on the template's MPL-specific continuum.
		qs, ok := models[primary]
		if !ok {
			return 0, fmt.Errorf("%w: no QS model for T%d", core.ErrUntrainedMPL, primary)
		}
		cont, ok := env.Know.ContinuumFor(primary, len(concurrent)+1)
		if !ok {
			// Fall back to the experiment MPL's continuum.
			cont, ok = env.Know.ContinuumFor(primary, mpl)
			if !ok {
				return 0, fmt.Errorf("%w: no continuum for T%d", core.ErrUntrainedMPL, primary)
			}
		}
		r := must(env.Know.CQI(primary, concurrent))
		l := cont.Latency(qs.Point(r))
		iso := must(template(env.Know, primary)).IsolatedLatency
		if l < iso {
			l = iso
		}
		return l, nil
	}

	res := &Result{
		ID:     "ext-batch",
		Title:  fmt.Sprintf("Application §1 — batch scheduling at MPL %d", mpl),
		Paper:  "motivating application: \"better scheduling decisions for large query batches, reducing the completion time of individual queries and that of the entire batch\"",
		Header: []string{"Policy", "Forecast makespan", "Measured makespan", "Forecast error", "Mean job latency"},
	}

	cfg := env.Engine.Config()
	cfg.Seed = env.Opts.Seed + 2000
	policies := []sched.Policy{sched.FIFO{}, sched.SJF{}, sched.InteractionAware{}}
	measured := make(map[string]float64)
	for _, pol := range policies {
		order, err := pol.Order(batch, mpl, predict)
		if err != nil {
			return nil, err
		}
		_, forecastSpan, err := sched.Forecast(order, mpl, predict)
		if err != nil {
			return nil, err
		}
		specs := make([]sim.QuerySpec, len(order))
		for i, id := range order {
			specs[i] = env.Workload.MustSpec(id)
		}
		engine := sim.NewEngine(cfg)
		results, span, err := engine.RunBatch(specs, mpl)
		if err != nil {
			return nil, err
		}
		var lat []float64
		for _, r := range results {
			lat = append(lat, r.Latency)
		}
		ferr := stats.RelativeError(span, forecastSpan)
		res.AddRow(pol.Name(),
			fmt.Sprintf("%.0f s", forecastSpan),
			fmt.Sprintf("%.0f s", span),
			fmtPct(ferr),
			fmt.Sprintf("%.0f s", stats.Mean(lat)))
		key := pol.Name()
		measured[key] = span
		res.SetMetric("makespan/"+key, span)
		res.SetMetric("forecast-error/"+key, ferr)
		res.SetMetric("mean-latency/"+key, stats.Mean(lat))
	}
	if fifo, ok := measured["FIFO"]; ok {
		if ia, ok := measured["Interaction-aware"]; ok && fifo > 0 {
			res.SetMetric("improvement-vs-fifo", (fifo-ia)/fifo)
			res.AddRow("Interaction-aware vs FIFO", fmtPct((fifo-ia)/fifo), "", "", "")
		}
	}
	return res, nil
}
