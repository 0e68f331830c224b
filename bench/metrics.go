package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units, with directions and bounds;
// TestBenchmarkJSONMatchesMetrics keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a caller of the
// served predictor sees. The rate is a multiple of the echo's, measured
// in alternating slices of the same window (echo.go); in a closed loop
// it also fixes the mean latency (README).
var endToEnd = []metricDef{
	{"setup_s", "s"},              // median of 9 cold starts: exec to the first correct prediction
	{"req_rate_vs_echo", "ratio"}, // requests per second, over the echo's
	{"rss_mb", "MB"},              // server VmHWM at the end of the run
	{"mre_pct", "%"},              // served predictions against simulated ground truth
}

// perLayer are the metrics of a traced run, named module.quantity.
var perLayer = []metricDef{
	// Set-up, in process, median of 3.
	{"experiments.campaign_s", "s"},
	{"contender.system_train_s", "s"},
	{"core.fit_s", "s"},
	{"core.prime_ms", "ms"},
	// Single calls over the workload's mixes.
	{"core.predict_ns", "ns"},
	{"core.cqi_ns", "ns"},
	{"core.batch_ns_per_mix", "ns"},
	{"core.explain_ns", "ns"},
	{"core.shard_predict_ns", "ns"},
	{"core.shard_batch_ns_per_mix", "ns"},
	{"core.shard_observe_ns", "ns"},
	{"core.drain_ns_per_sample", "ns"},
	{"obs.observed_predict_ns", "ns"},
	{"obs.overhead_ns", "ns"},
	// The ladder: the workload's requests replayed rung by rung.
	{"core.kernel_req_ns", "ns"},
	{"core.shard_req_ns", "ns"},
	{"core.shard_self_ns", "ns"},
	{"obs.observed_req_ns", "ns"},
	{"obs.observed_self_ns", "ns"},
	{"serve.binary_rt_us", "us"},
	{"serve.binary_self_us", "us"},
	{"serve.http_handler_ns", "ns"},
	{"serve.http_handler_self_ns", "ns"},
	{"serve.http_rt_us", "us"},
	{"serve.http_self_us", "us"},
	// The server process under the workload, read from outside.
	{"proc.cpu_us_per_req", "us"},
	{"proc.alloc_bytes_per_req", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.feedback_dropped_frac", "ratio"},
	// The load generator checking itself, and what it saw, not relative
	// to the echo.
	{"client.cpu_frac", "ratio"},
	{"client.req_per_s", "1/s"},
	{"client.lat_p50_us", "us"},
	{"client.lat_p90_us", "us"},
	{"client.lat_p99_us", "us"},
	{"client.lat_p999_us", "us"},
	{"trace.overhead_pct", "%"},
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	defs      []metricDef
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(defs []metricDef) *result {
	return &result{Correct: true, Metrics: map[string]metricValue{}, defs: defs}
}

// count folds a load's request tallies into the result.
func (r *result) count(st *loadStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	r.Correct = r.Correct && st.failed == 0
}

func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: unknown metric " + name)
}

// complete reports a metric the run forgot or could not measure.
func (r *result) complete() error {
	for _, d := range r.defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), so the spreads printed here match the ones checked on the
// results.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { return s[max(0, min(i, n-1))] }
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		return (at(j-1)*float64(4-delta) + at(j)*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
