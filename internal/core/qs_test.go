package core

import (
	"testing"
)

func TestFitQSRecoversLine(t *testing.T) {
	// c = 0.8r + 0.1 exactly.
	rs := []float64{0, 0.25, 0.5, 0.75, 1}
	cs := make([]float64, len(rs))
	for i, r := range rs {
		cs[i] = 0.8*r + 0.1
	}
	m, err := FitQS(rs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Mu, 0.8, 1e-12) || !almostEq(m.B, 0.1, 1e-12) {
		t.Fatalf("fit %+v", m)
	}
	if !almostEq(m.Point(0.5), 0.5, 1e-12) {
		t.Fatal("Point wrong")
	}
}

func TestFitQSInsufficient(t *testing.T) {
	if _, err := FitQS([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for one sample")
	}
}

// syntheticRefs builds reference models where µ is exactly linear in the
// isolated latency and b is exactly linear in µ, so the transfer
// regressions must recover new templates' models perfectly.
func syntheticRefs(t *testing.T) (*Knowledge, *ReferenceModels) {
	t.Helper()
	var ts []TemplateStats
	models := make(map[int]QSModel)
	// µ = 1.2 − 0.001·l_min; b = 0.5 − 0.4·µ.
	for i, lmin := range []float64{100, 200, 300, 400, 500, 700} {
		id := i + 1
		ts = append(ts, TemplateStats{
			ID: id, IsolatedLatency: lmin, IOFraction: 0.9,
			SpoilerLatency: map[int]float64{2: lmin * 2},
		})
		mu := 1.2 - 0.001*lmin
		models[id] = QSModel{Mu: mu, B: 0.5 - 0.4*mu}
	}
	k := NewKnowledge(nil, ts)
	return k, NewReferenceModels(k, 2, models)
}

func TestEstimateForNew(t *testing.T) {
	_, refs := syntheticRefs(t)
	got, err := refs.EstimateForNew(600)
	if err != nil {
		t.Fatal(err)
	}
	wantMu := 1.2 - 0.001*600
	wantB := 0.5 - 0.4*wantMu
	if !almostEq(got.Mu, wantMu, 1e-9) || !almostEq(got.B, wantB, 1e-9) {
		t.Fatalf("estimated %+v, want µ=%g b=%g", got, wantMu, wantB)
	}
}

func TestEstimateInterceptFromMu(t *testing.T) {
	_, refs := syntheticRefs(t)
	got, err := refs.EstimateInterceptFromMu(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mu != 0.7 {
		t.Fatal("µ must be passed through")
	}
	if !almostEq(got.B, 0.5-0.4*0.7, 1e-9) {
		t.Fatalf("b = %g", got.B)
	}
}

func TestEstimateNeedsReferences(t *testing.T) {
	refs := NewReferenceModels(NewKnowledge(nil, nil), 2, nil)
	if _, err := refs.EstimateForNew(100); err == nil {
		t.Fatal("expected error with no references")
	}
	if _, err := refs.EstimateInterceptFromMu(1); err == nil {
		t.Fatal("expected error with no references")
	}
}

func TestCoefficientRelation(t *testing.T) {
	_, refs := syntheticRefs(t)
	fit, r2, err := refs.CoefficientRelation()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, -0.4, 1e-9) || !almostEq(fit.Intercept, 0.5, 1e-9) {
		t.Fatalf("relation %+v", fit)
	}
	if !almostEq(r2, 1, 1e-9) {
		t.Fatalf("R² = %g, want 1 for exact relation", r2)
	}
}

func TestReferenceModelAccessors(t *testing.T) {
	_, refs := syntheticRefs(t)
	if refs.Len() != 6 || refs.MPL() != 2 {
		t.Fatalf("Len = %d, MPL = %d", refs.Len(), refs.MPL())
	}
	ids := refs.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not ascending")
		}
	}
	if _, ok := refs.Model(1); !ok {
		t.Fatal("model 1 missing")
	}
	if _, ok := refs.Model(99); ok {
		t.Fatal("model 99 must be absent")
	}
	mus, bs := refs.Coefficients()
	if len(mus) != 6 || len(bs) != 6 {
		t.Fatal("coefficient vectors wrong length")
	}
}
