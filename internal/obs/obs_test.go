package obs

import (
	"errors"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/sim"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{SpanBegin: "begin", SpanEnd: "end", Point: "point", Kind(9): "kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSinkNilAndPanicIsolation(t *testing.T) {
	Sink{}.Event(Event{Span: SpanTrainMix}) // must not panic
	Isolate(nil).Event(Event{Span: SpanTrainMix})
	if Isolate(nil).On() {
		t.Fatal("a Sink over no observer reports On")
	}

	p := panicObserver{}
	Isolate(p).Event(Event{Span: SpanTrainMix}) // panic swallowed at the boundary

	// Inside a Multi, a panicking observer must not starve its siblings.
	rec := NewRecording()
	m := Multi(p, rec)
	Isolate(m).Event(Event{Kind: Point, Span: PointTrainRetry})
	if rec.Len() != 1 {
		t.Fatalf("sibling observer got %d events, want 1", rec.Len())
	}
}

// TestIsolateDoesNotNest: isolating a Sink returns that Sink, so a
// value that crosses several layers keeps one recover per emission,
// and Multi drops a Sink over nothing as it drops nil.
func TestIsolateDoesNotNest(t *testing.T) {
	rec := NewRecording()
	s := Isolate(rec)
	if Isolate(s) != s || Isolate(Observer(s)) != s {
		t.Fatal("Isolate of a Sink wrapped it again")
	}
	if Multi(Sink{}, nil) != nil {
		t.Fatal("Multi kept a Sink over no observer")
	}
	if got := Multi(Sink{}, s); got != Observer(rec) {
		t.Fatal("single-observer Multi of a Sink must return the observer inside it")
	}
}

type panicObserver struct{}

func (panicObserver) Event(Event) { panic("observer bug") }

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must collapse to nil")
	}
	rec := NewRecording()
	if got := Multi(nil, rec); got != Observer(rec) {
		t.Fatal("single-observer Multi must return the observer itself")
	}
}

func TestFindMetrics(t *testing.T) {
	if FindMetrics(nil) != nil {
		t.Fatal("nil observer has no metrics")
	}
	m := NewMetrics()
	if FindMetrics(m) != m {
		t.Fatal("direct Metrics not found")
	}
	if FindMetrics(Multi(NewRecording(), m)) != m {
		t.Fatal("Metrics inside a Multi not found")
	}
	if FindMetrics(Isolate(m)) != m || FindMetrics(Isolate(Multi(NewRecording(), m))) != m {
		t.Fatal("Metrics inside a Sink not found")
	}
	if FindMetrics(NewRecording()) != nil {
		t.Fatal("Recording is not Metrics")
	}
}

func TestRecordingCanonicalLog(t *testing.T) {
	rec := NewRecording()
	rec.Event(Event{Kind: SpanBegin, Span: SpanTrainMix, Key: "mix/2/0"})
	rec.Event(Event{
		Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/0",
		Attempt: 2, Value: 1.5, Dur: 123 * time.Millisecond, Err: "boom",
	})
	rec.Event(Event{Kind: Point, Span: PointSimStage, Template: 7, MPL: 3, Stream: 1})
	want := "begin train.mix key=mix/2/0\n" +
		"end train.mix key=mix/2/0 attempt=2 value=1.5 err=boom\n" +
		"point sim.stage template=7 mpl=3 stream=1\n"
	if got := rec.CanonicalLog(); got != want {
		t.Errorf("canonical log:\n%q\nwant:\n%q", got, want)
	}
	// Wall-clock durations must NOT appear — they vary run to run.
	if strings.Contains(rec.CanonicalLog(), "123") {
		t.Error("canonical log leaked a wall-clock duration")
	}
	if rec.CountSpan(SpanTrainMix) != 2 || rec.CountSpan(PointSimStage) != 1 {
		t.Error("CountSpan miscounts")
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset did not clear the log")
	}
}

func TestRecordingConcurrent(t *testing.T) {
	rec := NewRecording()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Event(Event{Kind: Point, Span: PointTrainRetry})
			}
		}()
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", rec.Len())
	}
}

func TestSortEvents(t *testing.T) {
	events := []Event{
		{Span: "b", Key: "x", Kind: SpanEnd},
		{Span: "a", Key: "y", Kind: SpanEnd},
		{Span: "a", Key: "x", Kind: SpanEnd, Attempt: 2},
		{Span: "a", Key: "x", Kind: SpanBegin},
		{Span: "a", Key: "x", Kind: SpanEnd, Attempt: 1},
	}
	SortEvents(events)
	got := make([]string, len(events))
	for i, ev := range events {
		got[i] = ev.Span + "/" + ev.Key + "/" + ev.Kind.String()
	}
	want := []string{"a/x/begin", "a/x/end", "a/x/end", "a/y/end", "b/x/end"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	if events[1].Attempt != 1 || events[2].Attempt != 2 {
		t.Error("equal (span,key,kind) must order by attempt")
	}
}

func TestErrLabel(t *testing.T) {
	if ErrLabel(nil) != "" {
		t.Error("nil error must label empty")
	}
	if ErrLabel(errors.New("x")) != "x" {
		t.Error("error text lost")
	}
}

// --- metrics ---

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 4 || s.Sum != 106.5 {
		t.Fatalf("count=%d sum=%g", s.Count, s.Sum)
	}
	// Cumulative: le=1 catches 0.5 and the exact boundary 1; le=10 adds 5;
	// +Inf catches everything.
	wantCounts := []uint64{2, 3, 4}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d (le=%g): count %d, want %d", i, b.Le, b.Count, wantCounts[i])
		}
	}
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Errorf("median %g out of range", q)
	}
	if s.Quantile(1) != 10 {
		// All mass above the last finite bound returns the last finite Le.
		t.Errorf("q1 = %g, want 10 (last finite bound)", s.Quantile(1))
	}
}

func TestRegistryVecsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("hits_total", "h", "kind").With("a").Add(3)
	r.CounterVec("hits_total", "h", "kind").With("b").Inc()
	r.Gauge("temp", "t").Set(7)
	r.Histogram("lat", "l", []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	if snap.Counter(`hits_total{kind="a"}`) != 3 || snap.Counter(`hits_total{kind="b"}`) != 1 {
		t.Errorf("labeled counters: %+v", snap.Counters)
	}
	if snap.Gauge("temp") != 7 {
		t.Errorf("gauge: %+v", snap.Gauges)
	}
	if snap.Histogram("lat").Count != 1 {
		t.Errorf("histogram: %+v", snap.Histograms)
	}
	if snap.Counter("absent") != 0 || snap.Gauge("absent") != 0 || snap.Histogram("absent").Count != 0 {
		t.Error("absent metrics must read zero")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "x")
	r.Gauge("x", "x")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("contender_spans_total", "Completed spans.", "span").With("train.mix").Add(2)
	r.Histogram("dur_seconds", "Latency.", []float64{0.1, 1}).Observe(0.05)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP contender_spans_total Completed spans.",
		"# TYPE contender_spans_total counter",
		`contender_spans_total{span="train.mix"} 2`,
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="0.1"} 1`,
		`dur_seconds_bucket{le="+Inf"} 1`,
		"dur_seconds_sum 0.05",
		"dur_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	_ = r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

func TestMetricsObserverFolding(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Kind: SpanBegin, Span: SpanTrainMix, Key: "mix/2/0"})
	snap := m.Snapshot()
	if snap.Gauge(`contender_inflight_spans{span="train.mix"}`) != 1 {
		t.Error("begin must raise inflight")
	}
	m.Event(Event{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/0", Dur: 10 * time.Millisecond, Err: "boom"})
	// End-only serving span: the inflight gauge must not go negative.
	m.Event(Event{Kind: SpanEnd, Span: SpanServePredictKnown, Dur: time.Microsecond})
	for _, p := range []string{PointTrainRetry, PointTrainQuarantine, PointTrainCheckpoint, PointTrainResume} {
		m.Event(Event{Kind: Point, Span: p})
	}

	snap = m.Snapshot()
	checks := map[string]int64{
		`contender_spans_total{span="train.mix"}`:           1,
		`contender_span_errors_total{span="train.mix"}`:     1,
		`contender_spans_total{span="serve.predict_known"}`: 1,
		`contender_events_total{event="train.retry"}`:       1,
		"contender_retries_total":                           1,
		"contender_quarantines_total":                       1,
		"contender_checkpoint_writes_total":                 1,
		"contender_resumed_total":                           1,
	}
	for key, want := range checks {
		if got := snap.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if snap.Gauge(`contender_inflight_spans{span="train.mix"}`) != 0 {
		t.Error("matched begin/end must return inflight to 0")
	}
	if snap.Gauge(`contender_inflight_spans{span="serve.predict_known"}`) < 0 {
		t.Error("end-only span drove inflight negative")
	}
	if snap.Histogram(`contender_span_duration_seconds{span="train.mix"}`).Count != 1 {
		t.Error("duration histogram missed the span end")
	}
}

// TestServeSpanBucketResolution: serve.* span-duration series get the
// sub-microsecond bounds, so a ~60ns prediction span is resolved into
// the first (100ns) bucket instead of collapsing — as it did under
// DefaultLatencyBuckets, whose lowest bound is 100µs — into one
// uninformative bucket with every other serving span.
func TestServeSpanBucketResolution(t *testing.T) {
	if ServeLatencyBuckets[0] != 1e-7 || DefaultLatencyBuckets[0] != 0.0001 {
		t.Fatalf("bucket bound heads changed: serve %g default %g", ServeLatencyBuckets[0], DefaultLatencyBuckets[0])
	}
	if !sort.Float64sAreSorted(ServeLatencyBuckets) {
		t.Fatalf("ServeLatencyBuckets not ascending: %v", ServeLatencyBuckets)
	}
	m := NewMetrics()
	m.Event(Event{Kind: SpanEnd, Span: SpanServePredictKnown, Dur: 60 * time.Nanosecond})
	m.Event(Event{Kind: SpanEnd, Span: SpanServePredictExplain, Dur: 800 * time.Nanosecond})
	m.Event(Event{Kind: SpanEnd, Span: SpanTrainFit, Dur: 60 * time.Nanosecond})

	snap := m.Snapshot()
	serveHist := snap.Histogram(`contender_span_duration_seconds{span="serve.predict_known"}`)
	if len(serveHist.Buckets) != len(ServeLatencyBuckets)+1 {
		t.Fatalf("serve.* series has %d buckets, want %d", len(serveHist.Buckets), len(ServeLatencyBuckets)+1)
	}
	// 60ns ≤ 100ns: the very first bucket must already hold the sample.
	if b := serveHist.Buckets[0]; b.Le != 1e-7 || b.Count != 1 {
		t.Errorf("60ns span: first bucket le=%g count=%d, want le=1e-07 count=1", b.Le, b.Count)
	}
	explainHist := snap.Histogram(`contender_span_duration_seconds{span="serve.predict_explain"}`)
	if b := explainHist.Buckets[0]; b.Count != 0 {
		t.Errorf("800ns span leaked into the 100ns bucket")
	}
	if b := explainHist.Buckets[3]; b.Le != 1e-6 || b.Count != 1 {
		t.Errorf("800ns span: bucket le=%g count=%d, want le=1e-06 count=1", b.Le, b.Count)
	}
	// Non-serve spans keep the default bounds: the 60ns training span
	// lands in the first default (100µs) bucket of a 20-bucket series.
	trainHist := snap.Histogram(`contender_span_duration_seconds{span="train.fit"}`)
	if len(trainHist.Buckets) != len(DefaultLatencyBuckets)+1 {
		t.Fatalf("train.* series has %d buckets, want %d", len(trainHist.Buckets), len(DefaultLatencyBuckets)+1)
	}
	if b := trainHist.Buckets[0]; b.Le != 0.0001 || b.Count != 1 {
		t.Errorf("train span: first bucket le=%g count=%d, want le=0.0001 count=1", b.Le, b.Count)
	}
	// The heterogeneous family must still render in both expositions.
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`contender_span_duration_seconds_bucket{span="serve.predict_known",le="1e-07"} 1`,
		`contender_span_duration_seconds_bucket{span="train.fit",le="0.0001"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsServeHTTPHeader(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Kind: SpanEnd, Span: SpanTrainFit, Dur: time.Millisecond})
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "contender_spans_total") {
		t.Error("HTTP body missing metrics")
	}
}

// --- slow log ---

func TestSlowLogThreshold(t *testing.T) {
	var b strings.Builder
	sl := NewSlowLog(&b, 100*time.Millisecond)
	sl.SetClock(func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) })
	sl.Event(Event{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/0", Dur: 50 * time.Millisecond})
	sl.Event(Event{Kind: SpanBegin, Span: SpanTrainMix, Dur: time.Hour}) // begins never log
	sl.Event(Event{Kind: Point, Span: PointTrainRetry})
	if b.Len() != 0 {
		t.Fatalf("below-threshold events logged: %q", b.String())
	}
	sl.Event(Event{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/1", Attempt: 3, Dur: 250 * time.Millisecond, Err: "boom"})
	line := b.String()
	for _, want := range []string{"2026-01-02T03:04:05Z", "SLOW train.mix", "key=mix/2/1", "attempts=3", "took=250ms", `err="boom"`} {
		if !strings.Contains(line, want) {
			t.Errorf("slow line missing %q: %q", want, line)
		}
	}
}

// --- simulator bridge ---

func TestSimTracerBridge(t *testing.T) {
	rec := NewRecording()
	br := NewSimTracer(Isolate(rec))
	br.Event(sim.TraceEvent{Kind: sim.TraceStart, Time: 1.0, TemplateID: 7, Stream: 2})
	br.Event(sim.TraceEvent{Kind: sim.TraceStage, Time: 1.5, TemplateID: 7, Stream: 2, Table: "store_sales"})
	br.Event(sim.TraceEvent{Kind: sim.TraceComplete, Time: 3.5, TemplateID: 7, Stream: 2})

	events := rec.Events()
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	if events[0].Kind != SpanBegin || events[0].Span != SpanSimQuery || events[0].Value != 1.0 {
		t.Errorf("begin: %+v", events[0])
	}
	if events[1].Kind != Point || events[1].Span != PointSimStage || !strings.Contains(events[1].Key, "store_sales") {
		t.Errorf("stage: %+v", events[1])
	}
	end := events[2]
	if end.Kind != SpanEnd || end.Dur != 2500*time.Millisecond {
		t.Errorf("end: %+v (want virtual Dur 2.5s)", end)
	}

	// Completion without a matched start: no Dur, no panic.
	br.Event(sim.TraceEvent{Kind: sim.TraceComplete, Time: 9, Stream: 5})
	if last := rec.Events()[3]; last.Dur != 0 {
		t.Errorf("unmatched completion carried Dur %v", last.Dur)
	}

	// Nil-observer bridge drops everything without dereferencing.
	NewSimTracer(Sink{}).Event(sim.TraceEvent{Kind: sim.TraceStart})
}

func TestSimTracerOnEngine(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultConfig())
	rec := NewRecording()
	eng.SetTracer(NewSimTracer(Isolate(rec)))
	spec := sim.QuerySpec{
		TemplateID: 1,
		Stages: []sim.Stage{
			{Kind: sim.StageSeqIO, Table: "t", Amount: 1e8},
			{Kind: sim.StageCPU, Amount: 0.5},
		},
		WorkingSetBytes: 1e6,
	}
	if _, err := eng.RunIsolated(spec); err != nil {
		t.Fatal(err)
	}
	if rec.CountSpan(SpanSimQuery) < 2 {
		t.Fatalf("engine run produced %d sim.query events, want begin+end", rec.CountSpan(SpanSimQuery))
	}
	begins := 0
	for _, ev := range rec.Events() {
		if ev.Span == SpanSimQuery && ev.Kind == SpanBegin {
			begins++
		}
	}
	if begins == 0 {
		t.Fatal("no sim.query begin recorded")
	}
}
