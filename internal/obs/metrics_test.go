package obs

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/allocs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics-fold.prom from the current fold")

const foldGolden = "testdata/metrics-fold.prom"

// foldStream is the golden event stream, cut into stages. The golden
// renders the exposition after each stage, so it pins both the final
// values and the event at which every series first appears.
func foldStream() [][]Event {
	return [][]Event{
		// A Begin alone: only the inflight gauge appears.
		{
			{Kind: SpanBegin, Span: SpanTrainMix, Key: "mix/2/0"},
		},
		// A second Begin, then the first End: the span counter and
		// duration series appear, the gauge reads the open count.
		{
			{Kind: SpanBegin, Span: SpanTrainMix, Key: "mix/2/1"},
			{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/0", Dur: 10 * time.Millisecond},
		},
		// An errored End closes the last open span; an unmatched End
		// must leave the gauge at 0.
		{
			{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/1", Dur: 3 * time.Millisecond, Err: "boom"},
			{Kind: SpanEnd, Span: SpanTrainMix, Key: "mix/2/2", Dur: 40 * time.Millisecond},
		},
		// End-only serving spans: sub-microsecond buckets, no inflight
		// series, one of them errored.
		{
			{Kind: SpanEnd, Span: SpanServePredictKnown, Dur: 60 * time.Nanosecond},
			{Kind: SpanEnd, Span: SpanServePredictKnown, Dur: 3 * time.Microsecond},
			{Kind: SpanEnd, Span: SpanServePredictExplain, Dur: 800 * time.Nanosecond},
			{Kind: SpanEnd, Span: SpanServeRequest, Key: "predict", Value: 1, Dur: 4 * time.Microsecond},
			{Kind: SpanEnd, Span: SpanServePredictBatch, Dur: 20 * time.Microsecond, Err: "unknown_template"},
		},
		// Points, including every convenience total and a drift point.
		{
			{Kind: Point, Span: PointTrainRetry, Attempt: 1},
			{Kind: Point, Span: PointTrainRetry, Attempt: 2},
			{Kind: Point, Span: PointTrainQuarantine},
			{Kind: Point, Span: PointTrainCheckpoint},
			{Kind: Point, Span: PointTrainResume},
			{Kind: Point, Span: PointServeOverload},
			{Kind: Point, Span: PointQualityFeedback, Template: 26, Value: -0.125},
			{Kind: Point, Span: PointQualityDrift, Template: 26, Key: "healthy>degraded", Value: 4.5},
		},
		// A begun serve.* span keeps the serve buckets and gains a
		// gauge; an unmatched Begin stays open; a virtual-time simulator
		// span lands in the slow tail; a label value needing escapes.
		{
			{Kind: SpanBegin, Span: SpanServeRequest, Key: "feedback"},
			{Kind: SpanEnd, Span: SpanServeRequest, Key: "feedback", Dur: 2 * time.Microsecond},
			{Kind: SpanBegin, Span: SpanLifecycleRetrain},
			{Kind: SpanEnd, Span: SpanSimQuery, Stream: 3, Dur: 2500 * time.Millisecond},
			{Kind: SpanEnd, Span: "odd\"span\\\n", Dur: time.Second},
			{Kind: Point, Span: "odd\"point"},
		},
	}
}

// renderFold folds the golden stream into a fresh Metrics, writing the
// exposition after each stage.
func renderFold(t *testing.T) string {
	t.Helper()
	m := NewMetrics()
	var sb strings.Builder
	for i, stage := range foldStream() {
		for _, ev := range stage {
			m.Event(ev)
		}
		fmt.Fprintf(&sb, "# --- after stage %d\n", i+1)
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestMetricsFoldGolden: the /metrics exposition of a fixed event
// stream is byte-identical to testdata/metrics-fold.prom. Run with
// -update to rewrite the golden after a deliberate exposition change.
func TestMetricsFoldGolden(t *testing.T) {
	got := renderFold(t)
	if *updateGolden {
		if err := os.WriteFile(foldGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(foldGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition differs from %s at line %d:\n got: %q\nwant: %q", foldGolden, i+1, g, w)
		}
	}
}

// TestMetricsFirstEndConcurrent fires the first SpanEnd of one span
// name from many goroutines at once: exactly one series per family
// appears, and it counts every event.
func TestMetricsFirstEndConcurrent(t *testing.T) {
	const goroutines, perG = 16, 50
	for _, span := range []string{SpanTrainMix, SpanServePredictKnown} {
		m := NewMetrics()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					m.Event(Event{Kind: SpanEnd, Span: span, Dur: time.Microsecond})
					m.Event(Event{Kind: Point, Span: span})
				}
			}()
		}
		close(start)
		wg.Wait()

		var sb strings.Builder
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		const want = goroutines * perG
		for _, prefix := range []string{
			`contender_spans_total{span=`,
			`contender_span_duration_seconds_count{span=`,
			`contender_events_total{event=`,
		} {
			var lines []string
			for _, line := range strings.Split(sb.String(), "\n") {
				if strings.HasPrefix(line, prefix) {
					lines = append(lines, line)
				}
			}
			wantLine := fmt.Sprintf("%s%q} %d", prefix, span, want)
			if len(lines) != 1 || lines[0] != wantLine {
				t.Errorf("%s: series %q, want exactly [%q]", span, lines, wantLine)
			}
		}
		if strings.Contains(sb.String(), "contender_inflight_spans{") {
			t.Errorf("%s: End-only spans created an inflight series", span)
		}
	}
}

// TestInflightGaugeExact: goroutines race Begin/End pairs of one span
// name while k of them leave one Begin open. The gauge is the open
// count itself, so afterwards it reads exactly k — a CAS on the count
// followed by a separate Set of the gauge could leave it stale.
func TestInflightGaugeExact(t *testing.T) {
	const goroutines, pairs, k = 8, 2000, 3
	m := NewMetrics()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < pairs; i++ {
				if g < k && i == pairs/2 {
					m.Event(Event{Kind: SpanBegin, Span: SpanTrainMix})
				}
				m.Event(Event{Kind: SpanBegin, Span: SpanTrainMix})
				m.Event(Event{Kind: SpanEnd, Span: SpanTrainMix, Dur: time.Microsecond})
			}
		}(g)
	}
	close(start)
	wg.Wait()
	snap := m.Snapshot()
	if got := snap.Gauge(`contender_inflight_spans{span="train.mix"}`); got != k {
		t.Errorf("inflight gauge = %g after %d unmatched begins, want %d", got, k, k)
	}
	if got := snap.Counter(`contender_spans_total{span="train.mix"}`); got != goroutines*pairs {
		t.Errorf("spans_total = %d, want %d", got, goroutines*pairs)
	}
}

// TestMetricsEventWarmAllocFree: once a name's series are resolved,
// folding its events allocates nothing.
func TestMetricsEventWarmAllocFree(t *testing.T) {
	m := NewMetrics()
	for _, tc := range []struct {
		name string
		evs  []Event
	}{
		{"span", []Event{
			{Kind: SpanBegin, Span: SpanTrainMix},
			{Kind: SpanEnd, Span: SpanTrainMix, Dur: time.Millisecond, Err: "boom"},
		}},
		{"point", []Event{{Kind: Point, Span: PointTrainRetry}}},
		{"serve span", []Event{{Kind: SpanEnd, Span: SpanServePredictKnown, Dur: 60 * time.Nanosecond}}},
	} {
		fold := func() {
			for _, ev := range tc.evs {
				m.Event(ev)
			}
		}
		fold() // cold: resolves the series
		if n := allocs.Count(200, fold); n != 0 {
			t.Errorf("warm %s: %d allocations over 200 folds, want 0", tc.name, n)
		}
	}
}
