package obs

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"contender/internal/allocs"
)

// driftTestConfig is small enough that every state transition can be
// exercised with a handful of samples.
func driftTestConfig() DriftConfig {
	return DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 0.5, StaleMRE: 0.35, RecoverMRE: 0.15, Window: 4}
}

func TestDriftConfigDefaults(t *testing.T) {
	cfg := NewQuality(DriftConfig{}).Config()
	if cfg.MinSamples != 10 || cfg.Delta != 0.05 || cfg.Lambda != 2 ||
		cfg.StaleMRE != 0.35 || cfg.RecoverMRE != 0.15 || cfg.Window != 12 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if !reflect.DeepEqual(cfg.ErrorBuckets, DefaultErrorBuckets) {
		t.Errorf("ErrorBuckets = %v, want DefaultErrorBuckets", cfg.ErrorBuckets)
	}
}

func TestDriftStateString(t *testing.T) {
	cases := map[DriftState]string{
		DriftHealthy:  "healthy",
		DriftDegraded: "degraded",
		DriftStale:    "stale",
		DriftState(9): "state(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestTransitionLabel(t *testing.T) {
	cases := []struct {
		from, to DriftState
		want     string
	}{
		{DriftHealthy, DriftDegraded, "healthy>degraded"},
		{DriftDegraded, DriftStale, "degraded>stale"},
		{DriftDegraded, DriftHealthy, "degraded>healthy"},
		{DriftStale, DriftDegraded, "stale>degraded"},
		{DriftHealthy, DriftStale, "transition"}, // no direct edge
	}
	for _, c := range cases {
		if got := TransitionLabel(c.from, c.to); got != c.want {
			t.Errorf("TransitionLabel(%v, %v) = %q, want %q", c.from, c.to, got, c.want)
		}
	}
}

// feedUntil feeds err repeatedly until the template transitions,
// returning the transition result; it fails the test if no transition
// happens within limit samples.
func feedUntil(t *testing.T, q *Quality, template int, err float64, limit int) DriftResult {
	t.Helper()
	for i := 0; i < limit; i++ {
		if r := q.Observe(template, err); r.Transitioned {
			return r
		}
	}
	t.Fatalf("no transition after %d samples of %+.2f (state %v)", limit, err, q.State(template))
	return DriftResult{}
}

// TestDriftStateMachineWalk drives one template around the full cycle:
// healthy → degraded (detector fires) → stale (error level stays high)
// → degraded → healthy (error level recovers).
func TestDriftStateMachineWalk(t *testing.T) {
	q := NewQuality(driftTestConfig())

	// Baseline: accurate predictions.
	for i := 0; i < 6; i++ {
		if r := q.Observe(7, 0.01); r.Transitioned {
			t.Fatalf("transition during baseline at sample %d", i)
		}
	}

	r := feedUntil(t, q, 7, 0.5, 20) // sustained +50% error
	if r.Previous != DriftHealthy || r.State != DriftDegraded {
		t.Fatalf("first transition %v→%v, want healthy→degraded", r.Previous, r.State)
	}
	if r.Detector != 0 {
		t.Errorf("detector statistic not reset on transition: %v", r.Detector)
	}

	r = feedUntil(t, q, 7, 0.5, 20) // error level stays ≥ StaleMRE
	if r.Previous != DriftDegraded || r.State != DriftStale {
		t.Fatalf("second transition %v→%v, want degraded→stale", r.Previous, r.State)
	}

	r = feedUntil(t, q, 7, 0.01, 20) // retrained: error collapses
	if r.Previous != DriftStale || r.State != DriftDegraded {
		t.Fatalf("third transition %v→%v, want stale→degraded", r.Previous, r.State)
	}

	r = feedUntil(t, q, 7, 0.01, 20)
	if r.Previous != DriftDegraded || r.State != DriftHealthy {
		t.Fatalf("fourth transition %v→%v, want degraded→healthy", r.Previous, r.State)
	}

	rep := q.Report()
	if len(rep.Templates) != 1 || rep.Templates[0].Transitions != 4 {
		t.Errorf("report after the walk: %+v", rep)
	}
}

// TestDriftConstantBiasNeverFires: a template whose predictions carry a
// fixed bias from the start is not drifting — the Page-Hinkley running
// mean absorbs the offset and the template stays healthy.
func TestDriftConstantBiasNeverFires(t *testing.T) {
	q := NewQuality(driftTestConfig())
	for i := 0; i < 200; i++ {
		if r := q.Observe(3, 0.30); r.Transitioned {
			t.Fatalf("constant +30%% bias fired a transition at sample %d", i)
		}
	}
	if s := q.State(3); s != DriftHealthy {
		t.Errorf("state after constant bias = %v, want healthy", s)
	}
}

func TestObserveDropsNonFinite(t *testing.T) {
	q := NewQuality(driftTestConfig())
	q.Observe(1, 0.1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := q.Observe(1, bad)
		if r.Count != 1 || r.Transitioned {
			t.Errorf("Observe(%v) = %+v, want count 1 and no transition", bad, r)
		}
	}
	if rep := q.Report(); rep.Samples != 1 {
		t.Errorf("samples after non-finite feeds = %d, want 1", rep.Samples)
	}
}

func TestQualityStateUnknownTemplate(t *testing.T) {
	q := NewQuality(DriftConfig{})
	if s := q.State(404); s != DriftHealthy {
		t.Errorf("State(unknown) = %v, want healthy", s)
	}
}

func TestQualityReportOrderingAndQuantiles(t *testing.T) {
	q := NewQuality(DriftConfig{})
	for _, template := range []int{71, 2, 22} {
		for i := 0; i < 10; i++ {
			q.Observe(template, 0.08)
		}
	}
	rep := q.Report()
	if rep.Samples != 30 || rep.Healthy != 3 || rep.Degraded != 0 || rep.Stale != 0 {
		t.Fatalf("report totals: %+v", rep)
	}
	var ids []int
	for _, tq := range rep.Templates {
		ids = append(ids, tq.Template)
	}
	if !reflect.DeepEqual(ids, []int{2, 22, 71}) {
		t.Errorf("templates not sorted: %v", ids)
	}
	tq := rep.Templates[0]
	if tq.Count != 10 || math.Abs(tq.MRE-0.08) > 1e-9 || tq.LastError != 0.08 {
		t.Errorf("template summary: %+v", tq)
	}
	// All 10 samples land in the (0.05, 0.1] bucket, so every quantile
	// interpolates inside it.
	for _, p := range []float64{tq.P50, tq.P90, tq.P99} {
		if p <= 0.05 || p > 0.1 {
			t.Errorf("quantile %v outside the observed bucket (0.05, 0.1]", p)
		}
	}
}

func TestQualityReportNilReceiver(t *testing.T) {
	var q *Quality
	rep := q.Report()
	if rep.Samples != 0 || rep.Templates == nil || len(rep.Templates) != 0 {
		t.Errorf("nil Report() = %+v, want empty non-nil templates", rep)
	}
}

// TestQualityDeterminism: the same feedback sequence always yields the
// same report — the detector has no clocks and no randomness.
func TestQualityDeterminism(t *testing.T) {
	run := func() QualityReport {
		q := NewQuality(driftTestConfig())
		errs := []float64{0.02, -0.05, 0.4, 0.5, 0.45, -0.1, 0.5, 0.6, 0.5, 0.4, 0.5, 0.5, 0.45, 0.55}
		for round := 0; round < 3; round++ {
			for i, e := range errs {
				q.Observe(10+i%3, e)
			}
		}
		return q.Report()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("identical feeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestQualityWritePrometheusFamilies(t *testing.T) {
	q := NewQuality(DriftConfig{})
	q.Observe(71, 0.2)
	var b strings.Builder
	if err := q.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`contender_quality_feedback_total{template="71"} 1`,
		`contender_quality_relative_error_count{template="71"} 1`,
		`contender_quality_mre{template="71"} 0.2`,
		`contender_quality_state{template="71"} 0`,
		`contender_quality_transitions_total{template="71"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestObserveWarmPathAllocs: once a template's tracker exists, Observe
// must not allocate — the serving layer calls it per prediction.
func TestObserveWarmPathAllocs(t *testing.T) {
	q := NewQuality(DriftConfig{})
	q.Observe(5, 0.1) // cold path: tracker + handles
	if n := allocs.Count(200, func() { q.Observe(5, 0.07) }); n != 0 {
		t.Errorf("warm Observe: %d allocations over 200 calls, want 0", n)
	}
}

func TestQualityConcurrentObserve(t *testing.T) {
	q := NewQuality(DriftConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q.Observe(g%4, 0.1)
				q.State(g % 4)
			}
		}(g)
	}
	wg.Wait()
	rep := q.Report()
	if rep.Samples != 8*200 {
		t.Errorf("samples = %d, want %d", rep.Samples, 8*200)
	}
	if len(rep.Templates) != 4 {
		t.Errorf("templates = %d, want 4", len(rep.Templates))
	}
}
