package contender

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each BenchmarkXxx runs
// the corresponding experiment against a fully sampled environment
// (exhaustive pairs at MPL 2, four LHS designs at MPLs 3–5) and reports the
// experiment's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end. cmd/contender-bench prints the same
// artifacts as formatted tables.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/lhs"
	"contender/internal/obs"
	"contender/internal/sim"
	"contender/internal/stats"
	"contender/internal/tpcds"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// fullEnv builds the paper-scale sampling environment once per process.
func fullEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.Options{
			MPLs:          []int{2, 3, 4, 5},
			LHSRuns:       4,
			SteadySamples: 5,
			Seed:          42,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// runExperiment benches one experiment driver and reports named metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	env := fullEnv(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Run(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := res.Metrics[m]; ok {
			b.ReportMetric(v, strings.ReplaceAll(m, " ", "-"))
		}
	}
}

// Table 2 — MRE of the CQI metric and its two ablations, MPLs 2–5.
// Paper: Baseline I/O 25.4%, Positive I/O 20.4%, CQI 20.2%.
func BenchmarkTable2CQIVariants(b *testing.B) {
	runExperiment(b, "table2", "mre/CQI", "mre/Baseline I/O", "mre/Positive I/O")
}

// §3 — ML baselines on a static workload at MPL 2.
// Paper: KCCA 32%, SVM 21%.
func BenchmarkSec3MLStatic(b *testing.B) {
	runExperiment(b, "sec3static", "mre/kcca", "mre/svm")
}

// Figure 3 — ML baselines on unseen templates (leave-one-out, MPL 2).
// Paper: both learners degrade badly on new templates.
func BenchmarkFig3MLNewTemplates(b *testing.B) {
	runExperiment(b, "fig3", "kcca/avg", "svm/avg")
}

// Figure 4 — linear relationship between QS slope and intercept.
// Paper: coefficients lie close to a common trend line.
func BenchmarkFig4Coefficients(b *testing.B) {
	runExperiment(b, "fig4", "r2", "trend/slope")
}

// Table 3 — feature↔coefficient correlations (signed R²).
func BenchmarkTable3FeatureR2(b *testing.B) {
	runExperiment(b, "table3", "mu/Isolated latency", "b/Isolated latency")
}

// Figure 6 — spoiler latency growth by template class.
// Paper: linear growth; light < I/O-bound < memory-heavy slopes.
func BenchmarkFig6SpoilerGrowth(b *testing.B) {
	runExperiment(b, "fig6", "slope-per-mpl/t62", "slope-per-mpl/t71", "slope-per-mpl/t22")
}

// §5.5 — spoiler latency is linear in the MPL (train 1–3, test 4–5).
// Paper: ≈8% relative error.
func BenchmarkSec55SpoilerMPL(b *testing.B) {
	runExperiment(b, "sec55mpl", "mre")
}

// Figure 7 — per-template error of the CQI model at MPL 4.
// Paper: 19% average.
func BenchmarkFig7PerTemplate(b *testing.B) {
	runExperiment(b, "fig7", "mre/avg", "mre/io-bound", "mre/random-io", "mre/memory")
}

// Figure 8 — known vs. unknown templates, MPLs 2–5.
// Paper: Known 19%, Unknown-Y 23%, Unknown-QS 25%.
func BenchmarkFig8QSModels(b *testing.B) {
	runExperiment(b, "fig8", "known/avg", "unknown-y/avg", "unknown-qs/avg")
}

// Figure 9 — spoiler prediction for new templates.
// Paper: KNN ≈15% vs. I/O-Time ≈20%.
func BenchmarkFig9SpoilerPrediction(b *testing.B) {
	runExperiment(b, "fig9", "knn/avg", "iotime/avg")
}

// Figure 10 — end-to-end prediction for new templates.
// Paper: ≈25% with predicted spoilers; Isolated Prediction worst.
func BenchmarkFig10EndToEnd(b *testing.B) {
	runExperiment(b, "fig10", "known/avg", "knn/avg", "isolated/avg")
}

// §5.4 — sampling-cost accounting.
func BenchmarkSec54SamplingCost(b *testing.B) {
	runExperiment(b, "sec54cost", "spoiler-share", "sim-hours/mixes")
}

// §6.1 — steady-state outlier frequency (paper: ≈4%).
func BenchmarkSec61Outliers(b *testing.B) {
	runExperiment(b, "sec61outliers", "freq/all")
}

// Extension §8 — expanding database: stale predictor vs. analytically
// scaled knowledge base vs. oracle isolated latencies, at ×1.5 growth.
func BenchmarkExtDatabaseGrowth(b *testing.B) {
	runExperiment(b, "ext-growth", "stale/avg", "scaled/avg", "oracle/avg")
}

// Extension §8 — operator-granularity CQPP: learned QS models vs. the
// analytic per-stage model with zero training samples.
func BenchmarkExtOperatorModel(b *testing.B) {
	runExperiment(b, "ext-opmodel", "qs/avg", "opmodel/avg")
}

// Application §1 — batch scheduling: FIFO vs. SJF vs. interaction-aware
// ordering, measured on the simulator.
func BenchmarkExtBatchScheduling(b *testing.B) {
	runExperiment(b, "ext-batch", "improvement-vs-fifo", "makespan/FIFO", "makespan/Interaction-aware")
}

// Application §1 — predictive admission control on a Poisson stream.
func BenchmarkExtAdmissionControl(b *testing.B) {
	runExperiment(b, "ext-admission",
		"p95-slowdown/Fixed MPL", "p95-slowdown/Predictive SLO",
		"violations/Fixed MPL", "violations/Predictive SLO")
}

// Ablation — which isolated feature transfers the QS slope µ best.
func BenchmarkAblationQSFeatures(b *testing.B) {
	runExperiment(b, "ext-qsfeatures",
		"mre/Isolated latency (paper)", "mre/Spoiler slowdown", "mre/Mean-µ prior")
}

// Ablation — QS model transfer across multiprogramming levels.
func BenchmarkAblationCrossMPL(b *testing.B) {
	runExperiment(b, "ext-crossmpl", "train2/test2", "train2/test5", "train5/test5")
}

// Ablation — prediction error as a function of substrate noise.
func BenchmarkAblationNoise(b *testing.B) {
	runExperiment(b, "ext-noise", "mre/0.0x", "mre/1.0x", "mre/3.0x")
}

// Extension §8 — the resilience layer under injected faults: identity of
// the training data at a 10% transient rate, retries spent at 20%, and the
// coverage a permanent per-template fault leaves behind.
func BenchmarkExtChaos(b *testing.B) {
	runExperiment(b, "ext-chaos",
		"identical/10%", "retries/20%", "coverage/permanent")
}

// BenchmarkAblationSharedScans quantifies the simulator design choice CQI's
// ω/τ terms depend on: the latency of a fully-shared self-mix with
// shared-scan groups enabled vs. disabled. The reported ratio is the
// positive-interaction speedup the buffer pool provides.
func BenchmarkAblationSharedScans(b *testing.B) {
	w := tpcds.NewWorkload()
	spec := w.MustSpec(71)
	run := func(shared bool) float64 {
		cfg := sim.DefaultConfig()
		cfg.SharedScans = shared
		e := sim.NewEngine(cfg)
		res, err := e.RunSteadyState([]sim.QuerySpec{spec, spec},
			sim.SteadyStateOptions{Samples: 3, WarmupSkip: 1})
		if err != nil {
			b.Fatal(err)
		}
		return res.MeanLatency(0)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio = run(false) / run(true)
	}
	b.ReportMetric(ratio, "shared-scan-speedup")
}

// Micro-benchmarks of the framework's hot paths.

// BenchmarkEnvBuild measures the full training-data collection campaign at
// increasing worker-pool widths (a quick-scale design so one op stays in
// seconds). Output is byte-identical at every width — see
// TestEnvBuildDeterministic — so the sub-benchmarks differ only in
// wall-clock time; the speedup saturates at GOMAXPROCS.
func BenchmarkEnvBuild(b *testing.B) {
	quickOpts := func(workers int) experiments.Options {
		return experiments.Options{
			MPLs:          []int{2, 3},
			LHSRuns:       2,
			SteadySamples: 3,
			IsolatedRuns:  2,
			Seed:          42,
			Workers:       workers,
		}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := quickOpts(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.NewEnv(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Observer overhead on the same campaign: a recording observer (every
	// event retained — the worst case) and the metrics aggregator (the
	// production shape behind -metrics-addr). Budget: ≤10% over the
	// unobserved workers=1 row.
	b.Run("workers=1/recording", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := quickOpts(1)
			opts.Observer = obs.Isolate(obs.NewRecording())
			if _, err := experiments.NewEnv(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=1/metrics", func(b *testing.B) {
		opts := quickOpts(1)
		opts.Observer = obs.Isolate(obs.NewMetrics())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.NewEnv(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The campaign contender-serve runs before it binds a port (full
	// sampling at MPLs 2–5, seed 42, GOMAXPROCS workers): the training
	// behind the serving benchmark's setup_s. Its workers=1 sibling runs
	// the same campaign one task at a time, so the pair's ratio is the
	// pool's parallel efficiency.
	serve := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.NewEnv(experiments.Options{MPLs: []int{2, 3, 4, 5}, Seed: 42, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serve", serve(0))
	b.Run("serve/workers=1", serve(1))
	// contender-serve's whole start-up path before it binds: the same
	// campaign one task at a time, then the fit. No GC runs before the
	// first listen, so its B/op is what start-up adds to peak RSS; make
	// bench-guard holds it to a ceiling.
	b.Run("startup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wb, err := NewWorkbench(WithMPLs(2, 3, 4, 5), WithSeed(42), WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wb.Train(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	predOnce  sync.Once
	benchPred *Predictor
	predErr   error
)

// trainedPredictor trains a predictor once per process for the serving
// benchmarks and tests: quick sampling at MPLs 2–5, so mixes of up to
// four concurrent templates have a model.
func trainedPredictor(b testing.TB) *Predictor {
	b.Helper()
	predOnce.Do(func() {
		var wb *Workbench
		wb, predErr = NewWorkbench(QuickSampling(), WithMPLs(2, 3, 4, 5), WithSeed(42))
		if predErr != nil {
			return
		}
		benchPred, predErr = wb.Train()
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return benchPred
}

// BenchmarkPredictKnown is the serving hot path: one known-template
// prediction for an MPL-3 mix. Must report 0 allocs/op.
func BenchmarkPredictKnown(b *testing.B) {
	pred := trainedPredictor(b)
	mix := []int{2, 22}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictKnown(71, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictExplain is the blame-decomposition hot path: the same
// prediction as BenchmarkPredictKnown plus the per-neighbor intensity
// and seconds breakdown written into a reused buffer. Must report 0
// allocs/op — explain-enabled serving rides the same guarantee as the
// plain path.
func BenchmarkPredictExplain(b *testing.B) {
	pred := trainedPredictor(b)
	mix := []int{2, 22}
	var buf ExplainBuffer
	if _, err := pred.Explain(&buf, 71, mix); err != nil { // warm the buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Explain(&buf, 71, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictKnownObserved is the same hot path with the metrics
// observer attached: the span bookkeeping costs two monotonic clock
// reads, one lock-free handle lookup, a counter increment and one
// histogram insert per call. Held at 0 allocs/op like the unobserved
// row; the difference of the two is the observer's cost.
func BenchmarkPredictKnownObserved(b *testing.B) {
	pred := trainedPredictor(b)
	pred.SetObserver(obs.NewMetrics())
	defer pred.SetObserver(nil)
	mix := []int{2, 22}
	if _, err := pred.PredictKnown(71, mix); err != nil { // resolve the span's series
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictKnown(71, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictKnownObservedParallel runs the observed hot path from
// GOMAXPROCS goroutines into one Metrics observer: the shared series
// are bumped concurrently, as they are behind a server. Held at 0
// allocs/op.
func BenchmarkPredictKnownObservedParallel(b *testing.B) {
	pred := trainedPredictor(b)
	pred.SetObserver(obs.NewMetrics())
	defer pred.SetObserver(nil)
	mix := []int{2, 22}
	if _, err := pred.PredictKnown(71, mix); err != nil { // resolve the span's series
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pred.PredictKnown(71, mix); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPredictKnownFeedback is the instrumented feedback path: the
// same prediction as BenchmarkPredictKnown plus folding the observed
// latency into the quality aggregator (rolling stats, error histogram,
// drift detector). Warm trackers allocate nothing, so this row must
// also report 0 allocs/op; the delta against BenchmarkPredictKnown is
// the full cost of quality telemetry.
func BenchmarkPredictKnownFeedback(b *testing.B) {
	pred := trainedPredictor(b)
	pred.SetQuality(NewQuality(DriftConfig{}))
	defer pred.SetQuality(nil)
	mix := []int{2, 22}
	if _, err := pred.Feedback(71, mix, 100); err != nil { // warm the tracker
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Feedback(71, mix, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMixes builds n candidate mixes (MPL 2–3) over the trained template
// pool, deterministically, duplicates included — the shape a scheduler's
// combinatorial candidate generator produces.
func benchMixes(n int) [][]int {
	pool := []int{2, 22, 26, 61, 62, 71}
	mixes := make([][]int, n)
	for i := range mixes {
		a := pool[i%len(pool)]
		if i%3 == 0 {
			mixes[i] = []int{a}
		} else {
			mixes[i] = []int{a, pool[(i/2)%len(pool)]}
		}
	}
	return mixes
}

// randomMixes draws n mixes of 1–4 concurrent templates, each uniform
// over ids, from a fixed seed: the request shape of the serving
// benchmark's batch workload.
func randomMixes(ids []int, n int) [][]int {
	rng := rand.New(rand.NewSource(1))
	mixes := make([][]int, n)
	for i := range mixes {
		mix := make([]int, 1+rng.Intn(4))
		for j := range mix {
			mix[j] = ids[rng.Intn(len(ids))]
		}
		mixes[i] = mix
	}
	return mixes
}

// BenchmarkPredictBatch is PredictBatch (a loop over the PredictKnown
// pricing body) over a reusable buffer — the shape a scheduler probing
// candidate mixes uses. Every sub-benchmark must report 0 allocs/op.
// random256 prices 256 random mixes of 1–4 concurrents for primary 71;
// divide its ns/op by 256 for the per-mix cost.
func BenchmarkPredictBatch(b *testing.B) {
	pred := trainedPredictor(b)
	for _, tc := range []struct {
		name  string
		mixes [][]int
	}{
		{"mixes=4", [][]int{{2}, {2, 22}, {22, 62}, {26, 61}}},
		{"mixes=16", benchMixes(16)},
		{"mixes=64", benchMixes(64)},
		{"random256", randomMixes(pred.Knowledge().IDs(), 256)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var buf PredictBuffer
			if _, err := pred.PredictBatch(&buf, 71, tc.mixes); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pred.PredictBatch(&buf, 71, tc.mixes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedPredict is one Shard handle serving single predictions
// off the shared snapshot, as the serving benchmark's ladder times it.
// Must report 0 allocs/op.
func BenchmarkShardedPredict(b *testing.B) {
	pred := trainedPredictor(b)
	s, err := NewSharded(pred)
	if err != nil {
		b.Fatal(err)
	}
	sh := s.Acquire()
	mix := []int{2, 22}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Predict(71, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedObserve is feedback through a Shard handle: predict,
// compute the signed error and fold it into the quality aggregator
// inline, exactly what the server runs per feedback request. Must
// report 0 allocs/op.
func BenchmarkShardedObserve(b *testing.B) {
	pred := trainedPredictor(b)
	pred.SetQuality(NewQuality(DriftConfig{}))
	defer pred.SetQuality(nil)
	s, err := NewSharded(pred)
	if err != nil {
		b.Fatal(err)
	}
	sh := s.Acquire()
	mix := []int{2, 22}
	if _, err := sh.Observe(71, mix, 100); err != nil { // warm the tracker
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Observe(71, mix, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedPredictParallel scales the snapshot across GOMAXPROCS
// goroutines via RunParallel: the per-core throughput story.
func BenchmarkShardedPredictParallel(b *testing.B) {
	pred := trainedPredictor(b)
	s, err := NewSharded(pred)
	if err != nil {
		b.Fatal(err)
	}
	mix := []int{2, 22}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := s.Snapshot()
		for pb.Next() {
			if _, err := p.PredictKnown(71, mix); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCQI measures Eq. 5 for a 4-query mix against the precomputed
// index. Must report 0 allocs/op.
func BenchmarkCQI(b *testing.B) {
	env := fullEnv(b)
	know := env.Know
	if _, err := know.CQI(71, []int{2}); err != nil { // build the index outside the timed loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := know.CQI(71, []int{2, 22, 26, 62}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQSModelFit(b *testing.B) {
	rs := make([]float64, 100)
	cs := make([]float64, 100)
	for i := range rs {
		rs[i] = float64(i) / 100
		cs[i] = 0.8*rs[i] + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitQS(rs, cs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorIsolatedRun(b *testing.B) {
	w := tpcds.NewWorkload()
	e := sim.NewEngine(sim.DefaultConfig())
	spec := w.MustSpec(71)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunIsolated(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorSteadyStateMix(b *testing.B) {
	w := tpcds.NewWorkload()
	e := sim.NewEngine(sim.DefaultConfig())
	mix := []sim.QuerySpec{w.MustSpec(71), w.MustSpec(2), w.MustSpec(62), w.MustSpec(26)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunSteadyState(mix, sim.SteadyStateOptions{Samples: 5, WarmupSkip: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLHSDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lhs.SampleDisjoint(25, 5, 4, int64(i))
	}
}

func BenchmarkKNNSpoilerPrediction(b *testing.B) {
	env := fullEnv(b)
	knn, err := core.NewKNNSpoilerPredictor(env.Know, 3)
	if err != nil {
		b.Fatal(err)
	}
	t, ok := env.Know.Template(71)
	if !ok {
		b.Fatal("T71 missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictSpoilerLatency(knn, t, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRE(b *testing.B) {
	obs := make([]float64, 1000)
	pred := make([]float64, 1000)
	for i := range obs {
		obs[i] = float64(i + 1)
		pred[i] = float64(i + 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MRE(obs, pred)
	}
}
