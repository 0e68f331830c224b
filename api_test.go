package contender

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"
)

// The public-API tests share one quick workbench per process.
var (
	wbOnce sync.Once
	wbTest *Workbench
	wbPred *Predictor
	wbErr  error
)

func testWorkbench(t *testing.T) (*Workbench, *Predictor) {
	t.Helper()
	wbOnce.Do(func() {
		wbTest, wbErr = NewWorkbench(QuickSampling(), WithSeed(11))
		if wbErr != nil {
			return
		}
		wbPred, wbErr = wbTest.Train()
	})
	if wbErr != nil {
		t.Fatal(wbErr)
	}
	return wbTest, wbPred
}

func TestWorkbenchTemplates(t *testing.T) {
	wb, _ := testWorkbench(t)
	ids := wb.TemplateIDs()
	if len(ids) != 25 {
		t.Fatalf("%d templates, want 25", len(ids))
	}
	ts, ok := wb.Template(71)
	if !ok {
		t.Fatal("template 71 missing")
	}
	if ts.IsolatedLatency <= 0 || ts.IOFraction <= 0 {
		t.Fatalf("bad stats %+v", ts)
	}
	if wb.TemplateDescription(71) == "" {
		t.Fatal("description missing")
	}
	if wb.TemplateDescription(12345) != "" {
		t.Fatal("unknown template must have empty description")
	}
	if len(wb.Observations(2)) == 0 {
		t.Fatal("no MPL-2 observations")
	}
}

// TestObservationsAreACopy changes every latency and concurrency entry of
// Observations' result and retrains: the fit reads the campaign's own
// storage, so every sampled mix must price to the same bits as before.
func TestObservationsAreACopy(t *testing.T) {
	wb, err := NewWorkbench(QuickSampling(), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	before, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	ids := wb.TemplateIDs()
	for _, mpl := range []int{2, 3} {
		for _, o := range wb.Observations(mpl) {
			o.Latency *= 10
			for j := range o.Concurrent {
				o.Concurrent[j] = ids[0]
			}
		}
	}
	after, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	for _, mpl := range []int{2, 3} {
		obs := wb.Observations(mpl)
		if len(obs) == 0 {
			t.Fatalf("no observations at MPL %d", mpl)
		}
		for _, o := range obs {
			want, err1 := before.PredictKnown(o.Primary, o.Concurrent)
			got, err2 := after.PredictKnown(o.Primary, o.Concurrent)
			if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("T%d in %v: %v (%v) after changing the copy, %v (%v) before", o.Primary, o.Concurrent, got, err2, want, err1)
			}
		}
	}
}

func TestPredictKnownAgainstSimulation(t *testing.T) {
	wb, pred := testWorkbench(t)
	mix := []int{26, 62}
	estimate, err := pred.PredictKnown(mix[0], mix[1:])
	if err != nil {
		t.Fatal(err)
	}
	truth, err := wb.Simulate(mix)
	if err != nil {
		t.Fatal(err)
	}
	relErr := abs(truth[0]-estimate) / truth[0]
	if relErr > 0.5 {
		t.Fatalf("prediction %g vs truth %g: %.0f%% error", estimate, truth[0], 100*relErr)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestPredictorAccessors(t *testing.T) {
	_, pred := testWorkbench(t)
	mpls := pred.MPLs()
	if len(mpls) == 0 {
		t.Fatal("no trained MPLs")
	}
	if _, ok := pred.QSModelFor(71, mpls[0]); !ok {
		t.Fatal("QS model for T71 missing")
	}
	if _, ok := pred.QSModelFor(12345, mpls[0]); ok {
		t.Fatal("unknown template must have no model")
	}
	if _, ok := pred.QSModelFor(71, 99); ok {
		t.Fatal("untrained MPL must have no models")
	}
	if r, err := pred.CQI(71, []int{2}); err != nil || r < 0 {
		t.Fatalf("CQI = %g, %v; must be non-negative", r, err)
	}
	if pred.Knowledge() == nil {
		t.Fatal("knowledge accessor nil")
	}
}

func TestPredictErrors(t *testing.T) {
	_, pred := testWorkbench(t)
	// Serving failures carry errors.Is-able sentinels so callers can route
	// them (retry, fall back, reject the request) without string matching.
	if _, err := pred.PredictKnown(71, []int{2, 22, 26, 33}); !errors.Is(err, ErrUntrainedMPL) {
		t.Fatalf("untrained MPL: %v, want ErrUntrainedMPL", err)
	}
	if _, err := pred.PredictKnown(12345, []int{2}); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("unknown template: %v, want ErrUnknownTemplate", err)
	}
	if _, err := pred.PredictKnown(71, nil); !errors.Is(err, ErrEmptyMix) {
		t.Fatalf("empty mix: %v, want ErrEmptyMix", err)
	}
	if _, err := pred.TrackProgress(12345); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("TrackProgress on unknown template: %v, want ErrUnknownTemplate", err)
	}
}

func TestAdhocPipeline(t *testing.T) {
	wb, pred := testWorkbench(t)
	plan := &Plan{
		Root: Op(HashAggregate, 1e6, 100,
			Op(HashJoin, 10e6, 110,
				Scan("date_dim", 365, 141),
				Scan("web_sales", 20e6, 158))),
	}
	stats, err := wb.ProfileTemplate(777, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IsolatedLatency <= 0 {
		t.Fatal("profiling produced no latency")
	}
	if !stats.Scans["web_sales"] {
		t.Fatal("fact scan set missing web_sales")
	}
	if stats.Scans["date_dim"] {
		t.Fatal("dimension scans must not be in the CQI scan set")
	}

	// Spoiler prediction (constant-time path).
	sp, err := pred.PredictSpoiler(stats, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= stats.IsolatedLatency {
		t.Fatalf("spoiler %g must exceed isolated %g", sp, stats.IsolatedLatency)
	}

	// End-to-end new-template prediction vs. simulation.
	estimate, err := pred.PredictNew(stats, []int{71}, SpoilerKNN)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := wb.SimulateAdhoc(777, plan, []int{71})
	if err != nil {
		t.Fatal(err)
	}
	relErr := abs(truth-estimate) / truth
	if relErr > 0.6 {
		t.Fatalf("ad-hoc prediction %g vs truth %g: %.0f%% error", estimate, truth, 100*relErr)
	}
}

func TestProfileTemplateErrors(t *testing.T) {
	wb, _ := testWorkbench(t)
	if _, err := wb.ProfileTemplate(1000, &Plan{}); err == nil {
		t.Fatal("expected error for invalid plan")
	}
	if _, err := wb.ProfileTemplate(71, &Plan{Root: Scan("web_sales", 1e6, 158)}); err == nil {
		t.Fatal("expected error for duplicate template id")
	}
}

func TestSimulateErrors(t *testing.T) {
	wb, _ := testWorkbench(t)
	if _, err := wb.Simulate([]int{12345}); err == nil {
		t.Fatal("expected error for unknown template")
	}
	if _, err := wb.SimulateIsolated(12345); err == nil {
		t.Fatal("expected error for unknown template")
	}
	if _, err := wb.SimulateAdhoc(1000, &Plan{Root: Scan("web_sales", 1e6, 158)}, []int{12345}); err == nil {
		t.Fatal("expected error for unknown concurrent template")
	}
}

func TestSimulateIsolated(t *testing.T) {
	wb, _ := testWorkbench(t)
	res, err := wb.SimulateIsolated(62)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.IOFraction() <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestOptionPlumbing(t *testing.T) {
	wb, err := NewWorkbench(
		WithMPLs(2),
		WithLHSRuns(1),
		WithSteadySamples(2),
		WithSeed(5),
		WithHost(DefaultHost()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(wb.Observations(3)) != 0 {
		t.Fatal("MPL 3 must not be sampled")
	}
	if len(wb.Observations(2)) == 0 {
		t.Fatal("MPL 2 must be sampled")
	}
	pred, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.MPLs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("trained MPLs %v, want [2]", got)
	}
}

func TestDeterministicAcrossWorkbenches(t *testing.T) {
	a, err := NewWorkbench(QuickSampling(), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkbench(QuickSampling(), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Template(71)
	tb, _ := b.Template(71)
	if ta.IsolatedLatency != tb.IsolatedLatency {
		t.Fatal("same seed must reproduce identical profiling")
	}
}

func TestTrackProgress(t *testing.T) {
	wb, pred := testWorkbench(t)
	tracker, err := pred.TrackProgress(71)
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := wb.Template(71)
	// Run alone for half the isolated latency → ~50% progress.
	if _, err := tracker.Advance(stats.IsolatedLatency/2, nil); err != nil {
		t.Fatal(err)
	}
	if f := tracker.Fraction(); f < 0.45 || f > 0.55 {
		t.Fatalf("fraction %g, want ~0.5", f)
	}
	// Remaining under contention must exceed remaining alone.
	alone, err := tracker.Remaining(nil)
	if err != nil {
		t.Fatal(err)
	}
	contended, err := tracker.Remaining([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if contended <= alone {
		t.Fatalf("contended ETA %g must exceed isolated ETA %g", contended, alone)
	}
	if _, err := pred.TrackProgress(99999); err == nil {
		t.Fatal("unknown template must error")
	}
}

func TestScheduleBatchAPI(t *testing.T) {
	wb, pred := testWorkbench(t)
	batch := []int{71, 2, 62, 26, 22}
	order, jobs, forecast, err := pred.ScheduleBatch(batch, 2, PolicyInteractionAware)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(batch) || len(jobs) != len(batch) {
		t.Fatal("order/forecast size wrong")
	}
	if forecast <= 0 {
		t.Fatal("forecast makespan missing")
	}
	// Validate against the simulator.
	_, measured, err := wb.RunBatch(order, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := abs(measured-forecast) / measured; rel > 0.4 {
		t.Fatalf("forecast %g vs measured %g: %.0f%% off", forecast, measured, 100*rel)
	}
	// ForecastBatch with an explicit order agrees with ScheduleBatch.
	_, span2, err := pred.ForecastBatch(order, 2)
	if err != nil {
		t.Fatal(err)
	}
	if span2 != forecast {
		t.Fatal("ForecastBatch must reproduce the schedule's forecast")
	}
}

func TestComparePolicies(t *testing.T) {
	wb, pred := testWorkbench(t)
	batch := []int{71, 2, 62, 26}
	outcomes, err := ComparePolicies(wb, pred, batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("%d outcomes", len(outcomes))
	}
	for i := 1; i < len(outcomes); i++ {
		if outcomes[i-1].MeasuredMakespan > outcomes[i].MeasuredMakespan {
			t.Fatal("outcomes must be sorted by measured makespan")
		}
	}
	if _, err := ComparePolicies(wb, pred, nil, 2); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := ComparePolicies(wb, pred, []int{99999}, 2); err == nil {
		t.Fatal("unknown template must error")
	}
}

// TestGeneratedAdhocPipeline is a whole-pipeline property check: randomly
// generated, never-before-seen templates are profiled once in isolation
// and predicted with constant-time sampling; every prediction must land in
// a sane band around the simulated truth.
func TestGeneratedAdhocPipeline(t *testing.T) {
	wb, pred := testWorkbench(t)
	var errsSum float64
	const n = 6
	for i := 0; i < n; i++ {
		plan := wb.GenerateAdhocPlan(int64(100 + i))
		id := 5000 + i
		stats, err := wb.ProfileTemplate(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		estimate, err := pred.PredictNew(stats, []int{71}, SpoilerKNN)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := wb.SimulateAdhoc(id, plan, []int{71})
		if err != nil {
			t.Fatal(err)
		}
		rel := abs(truth-estimate) / truth
		if rel > 1.0 {
			t.Errorf("generated template %d: prediction %g vs truth %g (%.0f%% off)", i, estimate, truth, 100*rel)
		}
		// The prediction can never be below the template's isolated latency.
		if estimate < stats.IsolatedLatency*0.99 {
			t.Errorf("generated template %d: prediction %g below isolated %g", i, estimate, stats.IsolatedLatency)
		}
		errsSum += rel
	}
	if avg := errsSum / n; avg > 0.5 {
		t.Errorf("average ad-hoc error %.2f too high", avg)
	}
}

func TestGenerateAdhocPlanDeterministic(t *testing.T) {
	wb, _ := testWorkbench(t)
	a := wb.GenerateAdhocPlan(42)
	b := wb.GenerateAdhocPlan(42)
	if a.String() != b.String() {
		t.Fatal("same seed must generate the same plan")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorSaveLoad(t *testing.T) {
	_, pred := testWorkbench(t)
	path := t.TempDir() + "/model.json"
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions after reload.
	for _, mix := range [][]int{{71, 2}, {26, 62}, {22, 82}} {
		want, err := pred.PredictKnown(mix[0], mix[1:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PredictKnown(mix[0], mix[1:])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("mix %v: %g vs %g", mix, got, want)
		}
	}
	// The loaded predictor supports the ad-hoc path too (it carries the
	// whole knowledge base).
	stats, _ := pred.Knowledge().Template(71)
	stats.ID = 999
	stats.SpoilerLatency = map[int]float64{}
	if _, err := loaded.PredictNew(stats, []int{2}, SpoilerKNN); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCQIForStatsAdhoc(t *testing.T) {
	wb, pred := testWorkbench(t)
	plan, err := ParsePlan("HashAggregate:2e6:100(HashJoin:15e6:110(Scan:date_dim:365:141, Scan:web_sales:20e6:158))")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := wb.ProfileTemplate(888, plan)
	if err != nil {
		t.Fatal(err)
	}
	// T62 also scans web_sales: sharing must lower the intensity relative
	// to a disjoint partner (T82's inventory + store_sales scans).
	shared, err := pred.CQIForStats(stats, []int{62})
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := pred.CQIForStats(stats, []int{82})
	if err != nil {
		t.Fatal(err)
	}
	if shared >= disjoint {
		t.Fatalf("shared %g not below disjoint %g", shared, disjoint)
	}
}

func TestScheduleBatchMPLFallback(t *testing.T) {
	// A predictor trained only at MPL 2 must still schedule a batch at
	// MPL 3 via the nearest-MPL fallback.
	wb, err := NewWorkbench(WithMPLs(2), WithLHSRuns(1), WithSteadySamples(2), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	batch := []int{71, 2, 62, 26, 22}
	order, _, span, err := pred.ScheduleBatch(batch, 3, PolicySJF)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(batch) || span <= 0 {
		t.Fatalf("order %v span %g", order, span)
	}
	_, measured, err := wb.RunBatch(order, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rel := abs(measured-span) / measured; rel > 0.6 {
		t.Fatalf("fallback forecast %g vs measured %g (%.0f%% off)", span, measured, 100*rel)
	}
}

// The System training path takes one configuration and returns one
// result shape on both the plain and the context-first entry points, and
// that result reports on the workbench's CollectionReport; this pin makes
// an accidental signature change a compile error in this file.
var (
	_ func(System, TrainConfig) (*TrainResult, error)                  = TrainFromSystem
	_ func(context.Context, System, TrainConfig) (*TrainResult, error) = TrainFromSystemContext
	_ CollectionReport                                                 = TrainResult{}.Report
)

// The serving facade: NewSharded takes no options (it only holds the
// snapshot), and NewServer and Workbench.Serve share ServeOption. A
// signature change to any of them, or to a duration option, is a
// compile error here.
var (
	_ func(*Predictor) (*Sharded, error)                                                          = NewSharded
	_ func(*Sharded, ...ServeOption) (*Server, error)                                             = NewServer
	_ func(*Workbench, context.Context, *Predictor, string, ...ServeOption) (*BoundServer, error) = (*Workbench).Serve
	_ func(io.Writer, time.Duration) ServeOption                                                  = WithSlowLog
)
