package experiments

import (
	"fmt"
	"math"
	"sort"

	"contender/internal/core"
	"contender/internal/sim"
	"contender/internal/stats"
)

// ExtAdmission evaluates predictive admission control, the cloud-side
// application of Section 1 ("more informed resource provisioning"): an
// open system receives a Poisson stream of queries and an admission gate
// decides when queued queries may start. A plain gate admits whenever a
// slot is free (fixed MPL); Contender's gate additionally holds the queue
// head back while its predicted slowdown — or that of any running query
// under the would-be mix — exceeds an SLO multiple of isolated latency.
func ExtAdmission(env *Env) (*Result, error) {
	const (
		maxActive    = 4
		nQueries     = 40
		sloSlowdown  = 3.0
		meanInterval = 120.0
	)

	// One QS model set for gate predictions.
	models, err := fitQSModels(env, env.sortedMPLs()[0])
	if err != nil {
		return nil, err
	}
	predict := flexibleLatency(env, models)

	// A Poisson arrival stream over the workload.
	rng := env.Rand(55)
	ids := env.TemplateIDs()
	var arrivals []sim.Arrival
	now := 0.0
	for i := 0; i < nQueries; i++ {
		id := ids[rng.Intn(len(ids))]
		arrivals = append(arrivals, sim.Arrival{Time: now, Spec: env.Workload.MustSpec(id)})
		now += rng.ExpFloat64() * meanInterval
	}

	gate := func(_ float64, cand sim.QuerySpec, active []int) bool {
		mix := append([]int{cand.TemplateID}, active...)
		for i, primary := range mix {
			concurrent := append(append([]int{}, mix[:i]...), mix[i+1:]...)
			l, err := predict(primary, concurrent)
			if err != nil {
				return true // fail open
			}
			iso := must(template(env.Know, primary)).IsolatedLatency
			if l > sloSlowdown*iso {
				return false
			}
		}
		return true
	}

	res := &Result{
		ID:     "ext-admission",
		Title:  fmt.Sprintf("Application §1 — predictive admission control (max MPL %d, SLO %.1fx)", maxActive, sloSlowdown),
		Paper:  "motivating application: informed resource provisioning; the gate trades queueing delay for bounded concurrent slowdown",
		Header: []string{"Gate", "Mean exec slowdown", "P95 exec slowdown", "SLO violations", "Mean queue time", "Mean response"},
	}

	cfg := env.Engine.Config()
	type outcome struct {
		name string
		out  []sim.OpenResult
	}
	var outcomes []outcome
	for _, variant := range []struct {
		name string
		gate sim.AdmitFunc
	}{
		{"Fixed MPL", nil},
		{"Predictive SLO", gate},
	} {
		cfg.Seed = env.Opts.Seed + 3000 // same noise stream for both gates
		engine := sim.NewEngine(cfg)
		out, err := engine.RunOpenSystem(arrivals, maxActive, variant.gate)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, outcome{variant.name, out})
	}

	for _, oc := range outcomes {
		var slow, queue, resp []float64
		violations := 0
		for _, o := range oc.out {
			iso := must(template(env.Know, o.TemplateID)).IsolatedLatency
			s := o.Latency / iso
			slow = append(slow, s)
			queue = append(queue, o.QueueTime)
			resp = append(resp, o.ResponseTime())
			if s > sloSlowdown {
				violations++
			}
		}
		key := oc.name
		res.AddRow(key,
			fmt.Sprintf("%.2fx", stats.Mean(slow)),
			fmt.Sprintf("%.2fx", percentile(slow, 0.95)),
			fmt.Sprintf("%d/%d", violations, len(oc.out)),
			fmt.Sprintf("%.0f s", stats.Mean(queue)),
			fmt.Sprintf("%.0f s", stats.Mean(resp)))
		res.SetMetric("mean-slowdown/"+key, stats.Mean(slow))
		res.SetMetric("p95-slowdown/"+key, percentile(slow, 0.95))
		res.SetMetric("violations/"+key, float64(violations))
		res.SetMetric("mean-queue/"+key, stats.Mean(queue))
		res.SetMetric("mean-response/"+key, stats.Mean(resp))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d Poisson arrivals (mean interval %.0f s) over the whole workload; identical stream for both gates", nQueries, meanInterval))
	return res, nil
}

// flexibleLatency predicts a primary's latency in an arbitrary-size mix:
// exact QS model at trained MPLs, nearest trained MPL's continuum
// otherwise, floored at the isolated latency.
func flexibleLatency(env *Env, models map[int]core.QSModel) func(primary int, concurrent []int) (float64, error) {
	mpls := env.sortedMPLs()
	return func(primary int, concurrent []int) (float64, error) {
		iso, ok := env.Know.IsolatedLatency(primary)
		if !ok {
			return 0, fmt.Errorf("experiments: %w: T%d", core.ErrUnknownTemplate, primary)
		}
		if len(concurrent) == 0 {
			return iso, nil
		}
		qs, ok := models[primary]
		if !ok {
			return 0, fmt.Errorf("experiments: %w: no QS model for T%d", core.ErrUntrainedMPL, primary)
		}
		want := len(concurrent) + 1
		nearest := mpls[0]
		for _, m := range mpls {
			if abs(m-want) < abs(nearest-want) {
				nearest = m
			}
		}
		cont, ok := env.Know.ContinuumFor(primary, want)
		if !ok {
			cont, ok = env.Know.ContinuumFor(primary, nearest)
			if !ok {
				return 0, fmt.Errorf("experiments: %w: no continuum for T%d", core.ErrUntrainedMPL, primary)
			}
		}
		r := must(env.Know.CQI(primary, concurrent))
		l := cont.Latency(qs.Point(r))
		return math.Max(l, iso), nil
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// percentile returns the p-quantile of xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
