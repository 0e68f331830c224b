package experiments

import (
	"strings"
	"sync"
	"testing"

	"contender/internal/core"
	"contender/internal/tpcds"
)

// The integration tests run every experiment against a reduced environment
// (12 templates, MPLs 2–4, small designs) so the whole suite stays fast.
// The full-scale paper comparison happens in the repository's benchmark
// harness and in cmd/contender-bench.

var (
	envOnce sync.Once
	testEnv *Env
	envErr  error
)

// sharedEnv builds the test environment once per process.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		w := tpcds.NewWorkload().Subset([]int{2, 17, 22, 25, 26, 32, 33, 61, 62, 65, 71, 82})
		testEnv, envErr = NewEnvWith(w, Options{
			MPLs:          []int{2, 3, 4},
			LHSRuns:       2,
			SteadySamples: 3,
			IsolatedRuns:  2,
			Seed:          7,
		})
	})
	if envErr != nil {
		t.Fatalf("building test env: %v", envErr)
	}
	return testEnv
}

func TestEnvProfiling(t *testing.T) {
	env := sharedEnv(t)
	if len(env.TemplateIDs()) != 12 {
		t.Fatalf("%d templates", len(env.TemplateIDs()))
	}
	for _, id := range env.TemplateIDs() {
		ts := must(template(env.Know, id))
		if ts.IsolatedLatency <= 0 {
			t.Errorf("T%d has no isolated latency", id)
		}
		if ts.IOFraction <= 0 || ts.IOFraction > 1 {
			t.Errorf("T%d I/O fraction %g out of range", id, ts.IOFraction)
		}
		for _, mpl := range []int{2, 3, 4} {
			sp, ok := ts.SpoilerLatency[mpl]
			if !ok || sp <= ts.IsolatedLatency {
				t.Errorf("T%d spoiler at MPL %d = %g (iso %g)", id, mpl, sp, ts.IsolatedLatency)
			}
		}
	}
	// Scan times measured for every fact table.
	for _, ft := range env.Workload.Catalog.FactTables() {
		if env.Know.ScanTime(ft.Name) <= 0 {
			t.Errorf("no scan time for %s", ft.Name)
		}
	}
	if env.SimulatedSeconds.Isolated <= 0 || env.SimulatedSeconds.Spoiler <= 0 || env.SimulatedSeconds.Mixes <= 0 {
		t.Error("simulated-time accounting missing")
	}
}

func TestEnvSampling(t *testing.T) {
	env := sharedEnv(t)
	// MPL 2: exhaustive pairs over 12 templates = 78 mixes.
	if got := len(env.Samples[2]); got != 78 {
		t.Fatalf("MPL-2 mixes = %d, want 78", got)
	}
	for _, mpl := range []int{3, 4} {
		if len(env.Samples[mpl]) == 0 {
			t.Fatalf("no samples at MPL %d", mpl)
		}
		for _, s := range env.Samples[mpl] {
			if len(s.Mix) != mpl || len(s.Obs) != mpl {
				t.Fatalf("sample shape wrong at MPL %d: %v", mpl, s.Mix)
			}
			for _, o := range s.Obs {
				if o.Latency <= 0 {
					t.Fatalf("non-positive observation at MPL %d", mpl)
				}
				if o.MPL() != mpl {
					t.Fatalf("observation MPL %d, want %d", o.MPL(), mpl)
				}
			}
		}
	}
	// Each template appears as primary in at least a few observations.
	for _, id := range env.TemplateIDs() {
		if len(env.ObservationsFor(2, id)) < 5 {
			t.Errorf("T%d has too few MPL-2 observations", id)
		}
	}
	total := len(env.AllObservations())
	if total < 200 {
		t.Errorf("only %d observations total", total)
	}
}

func TestConcurrencySlowsQueriesDown(t *testing.T) {
	env := sharedEnv(t)
	// Sanity of the substrate: the average observed latency at MPL 4
	// exceeds the isolated latency for every template.
	for _, id := range env.TemplateIDs() {
		obs := env.ObservationsFor(4, id)
		if len(obs) == 0 {
			continue
		}
		var mean float64
		for _, o := range obs {
			mean += o.Latency
		}
		mean /= float64(len(obs))
		iso := must(template(env.Know, id)).IsolatedLatency
		if mean < iso {
			t.Errorf("T%d runs faster at MPL 4 (%g) than alone (%g)?", id, mean, iso)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registry has %d experiments, want 24", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("table2"); !ok {
		t.Fatal("table2 must resolve")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
	if len(IDs()) != 24 {
		t.Fatal("IDs() wrong")
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo", Paper: "p",
		Header: []string{"A", "BB"},
	}
	r.AddRow("1", "2")
	r.SetMetric("m", 0.5)
	r.Notes = append(r.Notes, "n")
	s := r.Render()
	for _, want := range []string{"== x — demo ==", "paper: p", "A", "BB", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	if r.Metrics["m"] != 0.5 {
		t.Fatal("metric not set")
	}
}

func TestTable2Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Metrics["mre/Baseline I/O"]
	cqi := res.Metrics["mre/CQI"]
	if base <= 0 || cqi <= 0 {
		t.Fatal("MREs must be positive")
	}
	// The paper's headline ordering: the full CQI metric beats the
	// baseline (small tolerance for the reduced design).
	if cqi > base*1.1 {
		t.Errorf("CQI MRE %.3f not better than baseline %.3f", cqi, base)
	}
}

func TestFig4Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig4(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["r2"] < 0.15 {
		t.Errorf("coefficient relation R² = %.3f, want a visible linear trend", res.Metrics["r2"])
	}
	if res.Metrics["trend/slope"] >= 0 {
		t.Errorf("trend slope %.3f, want negative (b falls as µ rises)", res.Metrics["trend/slope"])
	}
}

func TestTable3Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 features", len(res.Rows))
	}
	// All seven features must be measured against both coefficients.
	for _, f := range []string{"Isolated latency", "Max working set", "Spoiler slowdown"} {
		if _, ok := res.Metrics["mu/"+f]; !ok {
			t.Errorf("missing µ metric for %q", f)
		}
		if _, ok := res.Metrics["b/"+f]; !ok {
			t.Errorf("missing b metric for %q", f)
		}
	}
	// In the fluid substrate the slope is driven by memory/random-I/O
	// asymmetries, which the spoiler slowdown captures: that correlation
	// must be negative (higher worst-case inflation → flatter QS slope).
	// The paper's isolated-latency correlation arises from
	// interruption-averaging the fluid model does not exhibit; see
	// EXPERIMENTS.md.
	if res.Metrics["mu/Spoiler slowdown"] >= 0 {
		t.Errorf("µ vs spoiler slowdown R² = %.3f, want negative", res.Metrics["mu/Spoiler slowdown"])
	}
}

func TestFig6Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	light := res.Metrics["slope-per-mpl/t62"]
	io := res.Metrics["slope-per-mpl/t71"]
	mem := res.Metrics["slope-per-mpl/t22"]
	if !(light < io && io < mem) {
		t.Errorf("growth ordering wrong: light %.2f, io %.2f, mem %.2f", light, io, mem)
	}
	// Spoiler latency grows with the MPL for each category.
	if res.Metrics["t22/mpl4"] <= res.Metrics["t22/mpl2"] {
		t.Error("T22 spoiler must grow with MPL")
	}
}

func TestSec55Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Sec55MPL(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["mre"] <= 0 || res.Metrics["mre"] > 0.4 {
		t.Errorf("spoiler-linearity error %.3f, want small (paper ≈8%%)", res.Metrics["mre"])
	}
}

func TestFig7Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["mre/avg"] <= 0 || res.Metrics["mre/avg"] > 0.5 {
		t.Errorf("avg error %.3f out of plausible range", res.Metrics["mre/avg"])
	}
}

func TestFig8Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig8(env)
	if err != nil {
		t.Fatal(err)
	}
	known := res.Metrics["known/avg"]
	unkQS := res.Metrics["unknown-qs/avg"]
	if known <= 0 || unkQS <= 0 {
		t.Fatal("averages missing")
	}
	// Known templates must not predict worse than the transferred models.
	if known > unkQS*1.15 {
		t.Errorf("known %.3f worse than unknown-QS %.3f", known, unkQS)
	}
}

func TestFig9Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	knn := res.Metrics["knn/avg"]
	iot := res.Metrics["iotime/avg"]
	if knn <= 0 || iot <= 0 {
		t.Fatal("averages missing")
	}
	// Contender's two-feature KNN beats the single-feature baseline
	// (modest tolerance for the reduced workload).
	if knn > iot*1.15 {
		t.Errorf("KNN %.3f not better than I/O-Time %.3f", knn, iot)
	}
}

func TestFig10Shape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig10(env)
	if err != nil {
		t.Fatal(err)
	}
	known := res.Metrics["known/avg"]
	knn := res.Metrics["knn/avg"]
	iso := res.Metrics["isolated/avg"]
	if !(known > 0 && knn > 0 && iso > 0) {
		t.Fatal("averages missing")
	}
	// Isolated Prediction (zero samples, ±25% inputs) must be the worst.
	if iso < knn*0.95 {
		t.Errorf("Isolated Prediction %.3f unexpectedly better than KNN spoiler %.3f", iso, knn)
	}
}

func TestSec54CostShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Sec54Cost(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["spoiler-share"] <= 0 || res.Metrics["spoiler-share"] >= 1 {
		t.Errorf("spoiler share %.3f out of (0,1)", res.Metrics["spoiler-share"])
	}
	if res.Metrics["sim-hours/mixes"] <= res.Metrics["sim-hours/spoiler"] {
		t.Error("mix sampling must dominate the budget")
	}
}

func TestSec3StaticShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ML baselines are slow; skipped in -short")
	}
	env := sharedEnv(t)
	res, err := Sec3Static(env)
	if err != nil {
		t.Fatal(err)
	}
	k := res.Metrics["mre/kcca"]
	s := res.Metrics["mre/svm"]
	if k <= 0 || s <= 0 || k > 2 || s > 2 {
		t.Errorf("ML static errors implausible: KCCA %.3f, SVM %.3f", k, s)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("ML baselines are slow; skipped in -short")
	}
	env := sharedEnv(t)
	res, err := Fig3(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["kcca/avg"] <= 0 || res.Metrics["svm/avg"] <= 0 {
		t.Fatal("averages missing")
	}
	if len(res.Rows) < 4 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
}

func TestMLSubsetCoversOnlySharedFeatures(t *testing.T) {
	env := sharedEnv(t)
	subset := MLSubset(env)
	if len(subset) < 3 {
		t.Fatalf("subset too small: %v", subset)
	}
	if len(subset) > len(env.TemplateIDs()) {
		t.Fatal("subset larger than workload")
	}
}

func TestExtGrowthShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtGrowth(env)
	if err != nil {
		t.Fatal(err)
	}
	stale := res.Metrics["stale/avg"]
	scaled := res.Metrics["scaled/avg"]
	if stale <= 0 || scaled <= 0 {
		t.Fatal("averages missing")
	}
	// Analytic rescaling must beat the stale predictor clearly.
	if scaled >= stale {
		t.Errorf("scaled %.3f not better than stale %.3f", scaled, stale)
	}
}

func TestExtOpModelShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtOpModel(env)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Metrics["qs/avg"]
	om := res.Metrics["opmodel/avg"]
	if qs <= 0 || om <= 0 {
		t.Fatal("averages missing")
	}
	// The learned QS path must beat the zero-training analytic model.
	if qs >= om {
		t.Errorf("QS %.3f not better than operator model %.3f", qs, om)
	}
}

func TestStageProfiles(t *testing.T) {
	env := sharedEnv(t)
	profiles := env.StageProfiles(71)
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	var total float64
	seq := 0
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		total += p.IsolatedSeconds
		if p.Class == core.StageClassSeqIO {
			seq++
			if p.Table == "" {
				t.Fatal("sequential profile missing table")
			}
		}
	}
	// The stage-profile sum approximates the template's isolated latency.
	iso := must(template(env.Know, 71)).IsolatedLatency
	if total < iso*0.8 || total > iso*1.2 {
		t.Fatalf("profile sum %.0f vs isolated %.0f", total, iso)
	}
	if seq < 3 {
		t.Fatalf("T71 must have 3 fact scans, got %d", seq)
	}
}

func TestExtBatchShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtBatch(env)
	if err != nil {
		t.Fatal(err)
	}
	fifo := res.Metrics["makespan/FIFO"]
	ia := res.Metrics["makespan/Interaction-aware"]
	if fifo <= 0 || ia <= 0 {
		t.Fatal("makespans missing")
	}
	// The interaction-aware schedule must not be slower than FIFO by more
	// than forecast noise.
	if ia > fifo*1.05 {
		t.Errorf("interaction-aware %.0f worse than FIFO %.0f", ia, fifo)
	}
	// Forecasts must land near the measured makespans.
	for _, p := range []string{"FIFO", "SJF", "Interaction-aware"} {
		if e := res.Metrics["forecast-error/"+p]; e > 0.35 {
			t.Errorf("%s forecast error %.2f too large", p, e)
		}
	}
}

func TestExtAdmissionShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtAdmission(env)
	if err != nil {
		t.Fatal(err)
	}
	fixedViol := res.Metrics["violations/Fixed MPL"]
	gatedViol := res.Metrics["violations/Predictive SLO"]
	if gatedViol > fixedViol {
		t.Errorf("predictive gate has more SLO violations (%g) than fixed MPL (%g)", gatedViol, fixedViol)
	}
	if res.Metrics["p95-slowdown/Predictive SLO"] > res.Metrics["p95-slowdown/Fixed MPL"]*1.05 {
		t.Errorf("predictive gate did not curb the slowdown tail")
	}
	// The gate pays with queueing delay.
	if res.Metrics["mean-queue/Predictive SLO"] < res.Metrics["mean-queue/Fixed MPL"]*0.8 {
		t.Errorf("expected the gate to queue at least as much as fixed MPL")
	}
}

func TestExtQSFeaturesShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtQSFeatures(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 estimators", len(res.Rows))
	}
	paper := res.Metrics["mre/Isolated latency (paper)"]
	prior := res.Metrics["mre/Mean-µ prior"]
	if paper <= 0 || prior <= 0 {
		t.Fatal("metrics missing")
	}
	// Every estimator must stay within a plausible band of the prior; the
	// ablation's point is that the differences are small on this substrate.
	for _, row := range res.Rows {
		m := res.Metrics["mre/"+row[0]]
		if m <= 0 || m > prior*2 {
			t.Errorf("estimator %q MRE %.3f implausible", row[0], m)
		}
	}
}

func TestExtCrossMPLShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtCrossMPL(env)
	if err != nil {
		t.Fatal(err)
	}
	// Same-MPL (diagonal) models must not be worse than the average
	// cross-MPL transfer into that level.
	for _, mpl := range []int{2, 3, 4} {
		diag := res.Metrics[metricKey(mpl, mpl)]
		var off []float64
		for _, other := range []int{2, 3, 4} {
			if other != mpl {
				off = append(off, res.Metrics[metricKey(other, mpl)])
			}
		}
		var sum float64
		for _, v := range off {
			sum += v
		}
		if avg := sum / float64(len(off)); diag > avg*1.1 {
			t.Errorf("diagonal MPL %d (%.3f) worse than cross average (%.3f)", mpl, diag, avg)
		}
	}
}

func metricKey(train, test int) string {
	return "train" + string(rune('0'+train)) + "/test" + string(rune('0'+test))
}

func TestExtNoiseShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtNoise(env)
	if err != nil {
		t.Fatal(err)
	}
	quiet := res.Metrics["mre/0.0x"]
	loud := res.Metrics["mre/3.0x"]
	if quiet <= 0 || loud <= 0 {
		t.Fatal("metrics missing")
	}
	// Error must grow with noise.
	if loud <= quiet {
		t.Errorf("3x-noise MRE %.3f not above zero-noise MRE %.3f", loud, quiet)
	}
}

func TestExtChaosShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := ExtChaos(env)
	if err != nil {
		t.Fatal(err)
	}
	// 1 clean baseline + 3 transient rates + 1 permanent fault.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, rate := range []string{"5%", "10%", "20%"} {
		if res.Metrics["identical/"+rate] != 1 {
			t.Errorf("training data at %s transient faults diverged from clean", rate)
		}
		if res.Metrics["retries/"+rate] <= 0 {
			t.Errorf("no retries recorded at %s transient faults", rate)
		}
	}
	cov := res.Metrics["coverage/permanent"]
	if cov <= 0.5 || cov >= 1 {
		t.Errorf("permanent-fault coverage %.3f, want partial degradation", cov)
	}
	if res.Metrics["dropped_mixes/permanent"] <= 0 {
		t.Error("permanent fault must drop the victim's mixes")
	}
}

func TestSec61OutliersShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Sec61Outliers(env)
	if err != nil {
		t.Fatal(err)
	}
	freq := res.Metrics["freq/all"]
	if freq < 0 || freq > 0.25 {
		t.Errorf("outlier frequency %.3f implausible (paper ≈4%%)", freq)
	}
	// Both partner-ratio metrics must be present when outliers occurred;
	// their relation is substrate-dependent (see the experiment's note).
	if res.Metrics["freq/all"] > 0 {
		if _, ok := res.Metrics["outlier-partner-ratio"]; !ok {
			t.Error("outlier partner ratio missing")
		}
	}
}
