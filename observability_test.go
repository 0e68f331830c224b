package contender

import (
	"context"
	"strings"
	"testing"
	"time"
)

// quickObsOptions is a small, fast sampling design shared by the
// observability tests.
func quickObsOptions(extra ...Option) []Option {
	base := []Option{WithMPLs(2), WithLHSRuns(1), WithSteadySamples(2), WithSeed(7), WithWorkers(1)}
	return append(base, extra...)
}

// TestGoldenObserverEventStream is the determinism property of the
// observability layer: two same-seed single-worker campaigns emit
// byte-identical canonical event logs (wall-clock durations excluded,
// every deterministic field included).
func TestGoldenObserverEventStream(t *testing.T) {
	run := func() string {
		rec := NewRecordingObserver()
		wb, err := NewWorkbench(quickObsOptions(WithObserver(rec))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wb.Train(); err != nil {
			t.Fatal(err)
		}
		return rec.CanonicalLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same-seed campaigns produced different canonical event logs")
	}
	// The log must actually cover the campaign: campaign begin/end,
	// per-template profiles, scans, mixes, checkpointless run → no points.
	for _, want := range []string{
		"begin " + SpanTrainCampaign,
		"end " + SpanTrainCampaign,
		"end " + SpanTrainProfile,
		"end " + SpanTrainScan,
		"end " + SpanTrainMix,
		"end " + SpanTrainFit,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("canonical log missing %q", want)
		}
	}
}

// TestGoldenObserverEventStreamWithFaults extends the golden property
// under injected transient faults rescued by retries: the retry points
// (including their seed-deterministic backoff delays in Value) are part
// of the reproducible stream.
func TestGoldenObserverEventStreamWithFaults(t *testing.T) {
	run := func() string {
		rec := NewRecordingObserver()
		p := DefaultRetryPolicy()
		p.Sleep = func(time.Duration) {}
		wb, err := NewWorkbench(quickObsOptions(
			WithObserver(rec),
			WithRetry(p),
			WithFaults(FaultConfig{Seed: 3, TransientRate: 0.10, Sleep: func(time.Duration) {}}),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		if wb.Resilience().Retries == 0 {
			t.Fatal("fault injection produced no retries; the test is vacuous")
		}
		return rec.CanonicalLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("faulted same-seed campaigns produced different canonical event logs")
	}
	if !strings.Contains(a, "point "+PointTrainRetry) {
		t.Error("retry points missing from the event stream")
	}
}

// panickingObserver panics on every event — the adversarial observer of
// the isolation guarantee.
type panickingObserver struct{}

func (panickingObserver) Event(Event) { panic("hostile observer") }

// TestPanickingObserverCannotCorruptTraining: an observer that panics on
// every single event must not change what is trained. The resulting
// predictor is byte-identical to one trained without any observer.
func TestPanickingObserverCannotCorruptTraining(t *testing.T) {
	train := func(o Observer) string {
		opts := quickObsOptions()
		if o != nil {
			opts = append(opts, WithObserver(o))
		}
		wb, err := NewWorkbench(opts...)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := wb.Train()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := pred.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	clean := train(nil)
	hostile := train(panickingObserver{})
	if clean != hostile {
		t.Fatal("a panicking observer changed the trained predictor")
	}
}

// TestPanickingObserverOnSystemPath repeats the corruption check on the
// TrainFromSystem path, including serving: predictions still work with
// the hostile observer installed on the predictor.
func TestPanickingObserverOnSystemPath(t *testing.T) {
	clean, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosTrainConfig()
	cfg.Observer = panickingObserver{}
	hostile, err := TrainFromSystem(freshChaosSystem(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if predictorBytes(t, clean.Predictor) != predictorBytes(t, hostile.Predictor) {
		t.Fatal("a panicking observer changed the system-trained predictor")
	}
	// The hostile observer is inherited for serving; predictions survive it.
	want, err := clean.Predictor.PredictKnown(2, []int{22})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hostile.Predictor.PredictKnown(2, []int{22})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prediction under hostile observer %g != %g", got, want)
	}
}

// TestPredictKnownZeroAllocWithoutObserver locks the acceptance
// criterion in as a test (the CI bench guard enforces the same bound
// via BenchmarkPredictKnown): without an observer the serving hot path
// performs zero heap allocations.
func TestPredictKnownZeroAllocWithoutObserver(t *testing.T) {
	_, pred := testWorkbench(t)
	pred.Prime()
	mix := []int{2, 22}
	if _, err := pred.PredictKnown(71, mix); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pred.PredictKnown(71, mix); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictKnown without observer: %.1f allocs/op, want 0", allocs)
	}
}

// TestServingSpans: an observer installed on a predictor sees one
// serve.* span per call, with the right shape per endpoint.
func TestServingSpans(t *testing.T) {
	_, pred := testWorkbench(t)
	rec := NewRecordingObserver()
	pred.SetObserver(rec)
	defer pred.SetObserver(nil)
	if pred.Observer() != Observer(rec) {
		t.Fatal("Observer() accessor lost the observer")
	}

	if _, err := pred.PredictKnown(71, []int{2}); err != nil {
		t.Fatal(err)
	}
	if n := rec.CountSpan(SpanServePredictKnown); n != 1 {
		t.Errorf("%d predict_known spans, want 1", n)
	}

	var buf PredictBuffer
	mixes := [][]int{{2}, {2, 22}, {22, 62}}
	if _, err := pred.PredictBatch(&buf, 71, mixes); err != nil {
		t.Fatal(err)
	}
	// A batch is ONE span (Value = len(mixes)), not one per mix.
	if n := rec.CountSpan(SpanServePredictBatch); n != 1 {
		t.Errorf("%d predict_batch spans, want 1", n)
	}
	if n := rec.CountSpan(SpanServePredictKnown); n != 1 {
		t.Errorf("batch leaked %d extra predict_known spans", n-1)
	}

	pred.CQI(71, []int{2})
	if n := rec.CountSpan(SpanServeCQI); n != 1 {
		t.Errorf("%d cqi spans, want 1", n)
	}

	stats, _ := pred.Knowledge().Template(71)
	stats.ID = 9999
	if _, err := pred.PredictNew(stats, []int{2}, SpoilerMeasured); err != nil {
		t.Fatal(err)
	}
	if n := rec.CountSpan(SpanServePredictNew); n != 1 {
		t.Errorf("%d predict_new spans, want 1", n)
	}

	// Check the batch span's payload.
	for _, ev := range rec.Events() {
		if ev.Span == SpanServePredictBatch {
			if ev.Value != float64(len(mixes)) || ev.Template != 71 {
				t.Errorf("batch span payload: %+v", ev)
			}
		}
	}
}

// TestSchedulerSpans: ScheduleBatch emits a sched.policy span keyed by
// policy name and a sched.forecast span carrying the makespan.
func TestSchedulerSpans(t *testing.T) {
	_, pred := testWorkbench(t)
	rec := NewRecordingObserver()
	pred.SetObserver(rec)
	defer pred.SetObserver(nil)

	batch := []int{71, 2, 62, 26}
	_, _, makespan, err := pred.ScheduleBatch(batch, 2, PolicyInteractionAware)
	if err != nil {
		t.Fatal(err)
	}
	var policySeen, forecastSeen bool
	for _, ev := range rec.Events() {
		switch ev.Span {
		case SpanSchedPolicy:
			policySeen = true
			if ev.Key != PolicyInteractionAware.Name() || ev.Value != float64(len(batch)) || ev.MPL != 2 {
				t.Errorf("policy span payload: %+v", ev)
			}
		case SpanSchedForecast:
			forecastSeen = true
			if ev.Value != makespan {
				t.Errorf("forecast span value %g, want makespan %g", ev.Value, makespan)
			}
		}
	}
	if !policySeen || !forecastSeen {
		t.Fatalf("policy span seen=%v, forecast span seen=%v", policySeen, forecastSeen)
	}
}

// TestSystemPathObserverAndOptions exercises satellite concerns
// together: Workbench-style options (WithRetry, WithFaults,
// WithObserver) apply uniformly on the System path, retries surface as
// train.retry points, and the metrics observer aggregates them into the
// dedicated counters.
func TestSystemPathObserverAndOptions(t *testing.T) {
	rec := NewRecordingObserver()
	m := NewMetrics()
	p := *noSleepRetry()
	res, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig(),
		WithRetry(p),
		WithFaults(FaultConfig{Seed: 11, TransientRate: 0.10, Sleep: func(time.Duration) {}}),
		WithObserver(MultiObserver(rec, m)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Retries == 0 {
		t.Fatal("options did not reach the trainer: no retries under 10% transient faults")
	}
	if res.Report.FaultStats == nil || res.Report.FaultStats.Injected() == 0 {
		t.Fatal("WithFaults not applied on the System path")
	}
	if rec.CountSpan(PointTrainRetry) != res.Report.Retries {
		t.Errorf("%d retry points, report says %d retries", rec.CountSpan(PointTrainRetry), res.Report.Retries)
	}
	if n := rec.CountSpan(SpanTrainCampaign); n != 2 {
		t.Errorf("%d campaign events, want begin+end", n)
	}
	snap := m.Snapshot()
	if snap.Counter("contender_retries_total") != int64(res.Report.Retries) {
		t.Errorf("metrics retries %d != report %d", snap.Counter("contender_retries_total"), res.Report.Retries)
	}
	if snap.Counter(`contender_spans_total{span="train.profile"}`) == 0 {
		t.Error("profile spans missing from metrics")
	}
	// The predictor inherits the observer.
	if res.Predictor.Observer() == nil {
		t.Error("system-trained predictor did not inherit the observer")
	}
}

// TestSystemPathCheckpointEvents: checkpoint writes and resumed
// measurements surface as points on the System path.
func TestSystemPathCheckpointEvents(t *testing.T) {
	path := t.TempDir() + "/train.ckpt"
	inner := freshChaosSystem(5)
	rec := NewRecordingObserver()
	cfg := chaosTrainConfig()
	cfg.CheckpointPath = path
	cfg.Observer = rec

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := TrainFromSystemContext(ctx, &cancelAfterSystem{System: inner, after: 7, cancel: cancel}, cfg)
	if err == nil {
		t.Fatal("interrupted campaign must fail")
	}
	if rec.CountSpan(PointTrainCheckpoint) == 0 {
		t.Fatal("no checkpoint-write points before the interrupt")
	}

	rec2 := NewRecordingObserver()
	cfg.Observer = rec2
	res, err := TrainFromSystemContext(context.Background(), inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Resumed == 0 {
		t.Fatal("resume did not replay")
	}
	if rec2.CountSpan(PointTrainResume) != res.Report.Resumed {
		t.Errorf("%d resume points, report says %d", rec2.CountSpan(PointTrainResume), res.Report.Resumed)
	}
}

// TestWorkbenchMetricsAccessors covers Observer()/MetricsSnapshot() on
// the facade.
func TestWorkbenchMetricsAccessors(t *testing.T) {
	m := NewMetrics()
	wb, err := NewWorkbench(quickObsOptions(WithObserver(m))...)
	if err != nil {
		t.Fatal(err)
	}
	if wb.Observer() == nil {
		t.Fatal("Observer() lost the installed observer")
	}
	snap, ok := wb.MetricsSnapshot()
	if !ok {
		t.Fatal("MetricsSnapshot must find the Metrics observer")
	}
	if snap.Counter(`contender_spans_total{span="train.campaign"}`) != 1 {
		t.Errorf("campaign counter: %+v", snap.Counters)
	}
	if snap.Histogram(`contender_span_duration_seconds{span="train.mix"}`).Count == 0 {
		t.Error("mix duration histogram empty")
	}

	// No observer → no snapshot.
	plain, err := NewWorkbench(quickObsOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.MetricsSnapshot(); ok {
		t.Error("MetricsSnapshot must report absence without a Metrics observer")
	}
}

// TestObserveSimulation bridges the simulator tracer into an observer.
func TestObserveSimulation(t *testing.T) {
	wb, _ := testWorkbench(t)
	rec := NewRecordingObserver()
	wb.ObserveSimulation(rec)
	defer wb.ObserveSimulation(nil)
	if _, err := wb.SimulateIsolated(71); err != nil {
		t.Fatal(err)
	}
	if rec.CountSpan(SpanSimQuery) < 2 {
		t.Fatalf("%d sim.query events, want begin+end", rec.CountSpan(SpanSimQuery))
	}
	if rec.CountSpan(PointSimStage) == 0 {
		t.Error("no sim.stage points")
	}
	// Virtual durations: the end span's Dur must be positive and derived
	// from simulated time, not wall clock (an isolated query simulates
	// seconds of work in microseconds of wall time).
	for _, ev := range rec.Events() {
		if ev.Span == SpanSimQuery && ev.Kind == EventSpanEnd && ev.Dur < time.Millisecond {
			t.Errorf("virtual duration implausibly small: %v", ev.Dur)
		}
	}
}

// TestSlowLogOnCampaign: a zero-threshold slow log sees every span end.
func TestSlowLogOnCampaign(t *testing.T) {
	var b strings.Builder
	wb, err := NewWorkbench(quickObsOptions(WithObserver(NewSlowLog(&b, 0)))...)
	if err != nil {
		t.Fatal(err)
	}
	_ = wb
	if !strings.Contains(b.String(), "SLOW "+SpanTrainProfile) {
		t.Error("zero-threshold slow log missed profile spans")
	}
}

// TestObserverIsNotInCheckpointFingerprint: a campaign checkpointed
// WITHOUT an observer must resume cleanly WITH one — observation is
// outside the configuration identity.
func TestObserverIsNotInCheckpointFingerprint(t *testing.T) {
	path := t.TempDir() + "/train.ckpt"
	inner := freshChaosSystem(5)
	cfg := chaosTrainConfig()
	cfg.CheckpointPath = path

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := TrainFromSystemContext(ctx, &cancelAfterSystem{System: inner, after: 7, cancel: cancel}, cfg); err == nil {
		t.Fatal("interrupted campaign must fail")
	}

	cfg.Observer = NewRecordingObserver()
	if _, err := TrainFromSystemContext(context.Background(), inner, cfg); err != nil {
		t.Fatalf("adding an observer must not invalidate the checkpoint: %v", err)
	}
}
