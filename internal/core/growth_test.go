package core

import (
	"testing"
	"testing/quick"
)

func TestScaleStats(t *testing.T) {
	base := TemplateStats{
		ID: 1, IsolatedLatency: 400, IOFraction: 0.8,
		WorkingSetBytes: 2e9, RecordsAccessed: 1e8,
		Scans:          map[string]bool{"F": true},
		SpoilerLatency: map[int]float64{2: 900},
	}
	s := ScaleStats(base, 1.5)
	if !almostEq(s.IsolatedLatency, 600, 1e-9) {
		t.Fatalf("latency %g, want 600", s.IsolatedLatency)
	}
	if s.IOFraction != base.IOFraction {
		t.Fatal("I/O fraction must be unchanged under uniform growth")
	}
	if s.WorkingSetBytes != 3e9 || s.RecordsAccessed != 1.5e8 {
		t.Fatal("row-driven sizes must scale")
	}
	if len(s.SpoilerLatency) != 0 {
		t.Fatal("old-scale spoiler latencies must be dropped")
	}
	if !s.Scans["F"] {
		t.Fatal("scan set must carry over")
	}
	// Deep copy: mutating the scaled scan set must not touch the original.
	s.Scans["G"] = true
	if base.Scans["G"] {
		t.Fatal("scan set must be copied")
	}
}

func TestScaleStatsDegenerateFactor(t *testing.T) {
	base := TemplateStats{ID: 1, IsolatedLatency: 100, IOFraction: 0.5}
	for _, f := range []float64{0, -2} {
		s := ScaleStats(base, f)
		if s.IsolatedLatency != 100 {
			t.Fatalf("factor %g must behave as identity", f)
		}
	}
}

func TestScaleKnowledge(t *testing.T) {
	k := testKnowledge()
	scaled := ScaleKnowledge(k, 2)
	if got := scaled.ScanTime("F"); got != 200 {
		t.Fatalf("scan time %g, want 200", got)
	}
	orig := k.templates[2]
	grown := scaled.templates[2]
	if !almostEq(grown.IsolatedLatency, orig.IsolatedLatency*2, 1e-9) {
		t.Fatalf("latency %g", grown.IsolatedLatency)
	}
	// The original knowledge base is untouched.
	if k.ScanTime("F") != 100 {
		t.Fatal("ScaleKnowledge must not mutate its input")
	}
	if len(scaled.IDs()) != len(k.IDs()) {
		t.Fatal("template count changed")
	}
}

// Property: CQI is invariant under uniform database growth — every term of
// Eq. 4 scales linearly, so the ratios cancel. This is why original-scale
// QS models transfer to the grown database.
func TestCQIScaleInvariance(t *testing.T) {
	k := testKnowledge()
	f := func(factorRaw uint8) bool {
		factor := 1 + float64(factorRaw)/64 // 1.0 .. ~5
		scaled := ScaleKnowledge(k, factor)
		for _, primary := range k.IDs() {
			before := noErr(t)(k.CQI(primary, []int{2, 3}))
			after := noErr(t)(scaled.CQI(primary, []int{2, 3}))
			if !almostEq(before, after, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
