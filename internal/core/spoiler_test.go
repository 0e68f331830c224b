package core

import (
	"testing"
)

func TestFitSpoilerGrowth(t *testing.T) {
	// l_max = 150n + 50 exactly.
	mpls := []int{1, 2, 3, 4}
	lats := []float64{200, 350, 500, 650}
	g, err := FitSpoilerGrowth(mpls, lats)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g.Mu, 150, 1e-9) || !almostEq(g.B, 50, 1e-9) {
		t.Fatalf("growth %+v", g)
	}
	if !almostEq(g.Latency(5), 800, 1e-9) {
		t.Fatal("extrapolation wrong")
	}
}

func TestGrowthFromStats(t *testing.T) {
	ts := TemplateStats{
		ID: 1, IsolatedLatency: 100,
		SpoilerLatency: map[int]float64{2: 300, 3: 500, 4: 700, 5: 900},
	}
	// Including MPL 1 (isolated 100): l = 200n − 100.
	g, err := GrowthFromStats(ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g.Mu, 200, 1e-9) || !almostEq(g.B, -100, 1e-9) {
		t.Fatalf("growth %+v", g)
	}

	// Restricted to MPLs 1–3, extrapolating to 5.
	g13, err := GrowthFromStats(ts, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g13.Latency(5), 900, 1e-9) {
		t.Fatalf("extrapolated %g, want 900", g13.Latency(5))
	}
}

func TestGrowthFromStatsErrors(t *testing.T) {
	if _, err := GrowthFromStats(TemplateStats{ID: 1}, nil); err == nil {
		t.Fatal("expected error without samples")
	}
}

// spoilerKnowledge builds templates whose normalized spoiler growth is an
// exact function of (working set, I/O fraction) clusters, so KNN can
// recover it.
func spoilerKnowledge() *Knowledge {
	var ts []TemplateStats
	add := func(id int, ws, p, rate float64) {
		lmin := 100.0
		sp := make(map[int]float64)
		for mpl := 2; mpl <= 5; mpl++ {
			sp[mpl] = lmin * (rate*float64(mpl-1) + 1) // normalized: rate·n − rate + 1
		}
		ts = append(ts, TemplateStats{
			ID: id, IsolatedLatency: lmin, IOFraction: p,
			WorkingSetBytes: ws, SpoilerLatency: sp,
		})
	}
	// Cluster A: small ws, high I/O → growth rate 1.0.
	add(1, 1e8, 0.95, 1.0)
	add(2, 1.1e8, 0.96, 1.0)
	add(3, 0.9e8, 0.94, 1.0)
	// Cluster B: big ws, low I/O → growth rate 3.0.
	add(4, 5e9, 0.6, 3.0)
	add(5, 5.2e9, 0.58, 3.0)
	add(6, 4.8e9, 0.62, 3.0)
	return NewKnowledge(nil, ts)
}

func TestKNNSpoilerPredictor(t *testing.T) {
	k := spoilerKnowledge()
	p, err := NewKNNSpoilerPredictor(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "KNN" {
		t.Fatal("name wrong")
	}
	// A new template in cluster A must inherit cluster A's growth.
	newT := TemplateStats{ID: 99, IsolatedLatency: 200, IOFraction: 0.95, WorkingSetBytes: 1e8}
	lmax, err := PredictSpoilerLatency(p, newT, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster A at MPL 4: normalized 1.0·4 − 1.0 + 1 = 4 → ... the cluster
	// fit yields growth(4) = 4; latency = 4·200 = 800.
	if !almostEq(lmax, 800, 1) {
		t.Fatalf("predicted %g, want ~800", lmax)
	}
	// And in cluster B: growth(4) = 3·4 − 2 = 10 → 2000.
	newB := TemplateStats{ID: 98, IsolatedLatency: 200, IOFraction: 0.6, WorkingSetBytes: 5e9}
	lmaxB, err := PredictSpoilerLatency(p, newB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lmaxB, 2000, 1) {
		t.Fatalf("predicted %g, want ~2000", lmaxB)
	}
}

func TestKNNSpoilerTooFewTemplates(t *testing.T) {
	k := NewKnowledge(nil, []TemplateStats{{ID: 1, IsolatedLatency: 100, SpoilerLatency: map[int]float64{2: 200}}})
	if _, err := NewKNNSpoilerPredictor(k, 3); err == nil {
		t.Fatal("expected error with fewer templates than k")
	}
}

func TestIOTimeSpoilerPredictor(t *testing.T) {
	k := spoilerKnowledge()
	p, err := NewIOTimeSpoilerPredictor(k)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "I/O Time" {
		t.Fatal("name wrong")
	}
	// The univariate regression on p_t also separates the two clusters
	// (p=0.95 → rate 1, p=0.6 → rate 3), though less precisely in general.
	newT := TemplateStats{ID: 99, IsolatedLatency: 200, IOFraction: 0.95, WorkingSetBytes: 1e8}
	lmax, err := PredictSpoilerLatency(p, newT, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lmax < 600 || lmax > 1000 {
		t.Fatalf("predicted %g, want near 800", lmax)
	}
}

func TestPredictSpoilerClampsAboveIsolated(t *testing.T) {
	k := spoilerKnowledge()
	p, err := NewKNNSpoilerPredictor(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate input: predicting at MPL 0 would extrapolate below the
	// isolated latency; the result must clamp.
	newT := TemplateStats{ID: 99, IsolatedLatency: 200, IOFraction: 0.95, WorkingSetBytes: 1e8}
	lmax, err := PredictSpoilerLatency(p, newT, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lmax < newT.IsolatedLatency {
		t.Fatalf("spoiler %g below isolated %g", lmax, newT.IsolatedLatency)
	}
}
