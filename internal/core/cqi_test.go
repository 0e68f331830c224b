package core

import (
	"errors"
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// noErr returns a function that unwraps a (value, error) pair, failing t
// on the error.
func noErr(t testing.TB) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// testKnowledge builds a small synthetic workload with hand-checkable CQI
// terms:
//
//	table F: scan time 100 s; table G: 50 s; table H: 20 s
//	T1 (primary): scans F;      l_min 200, p 0.8
//	T2: scans F, G;             l_min 400, p 0.9
//	T3: scans G;                l_min 100, p 1.0
//	T4: no fact scans;          l_min 300, p 0.5
//
// Templates in extra are added after T1–T4.
func testKnowledge(extra ...TemplateStats) *Knowledge {
	var ts []TemplateStats
	add := func(id int, lmin, p float64, scans ...string) {
		s := make(map[string]bool)
		for _, f := range scans {
			s[f] = true
		}
		ts = append(ts, TemplateStats{
			ID: id, IsolatedLatency: lmin, IOFraction: p,
			Scans: s, SpoilerLatency: map[int]float64{},
		})
	}
	add(1, 200, 0.8, "F")
	add(2, 400, 0.9, "F", "G")
	add(3, 100, 1.0, "G")
	add(4, 300, 0.5)
	return NewKnowledge(map[string]float64{"F": 100, "G": 50, "H": 20}, append(ts, extra...))
}

func TestCQIHandComputed(t *testing.T) {
	k := testKnowledge()

	// Primary T1 with concurrent {T2}:
	// ω_2 = s_F = 100 (T2 shares F with the primary).
	// τ_2 = 0 (G is not shared with any other concurrent query).
	// r_2 = (400·0.9 − 100 − 0)/400 = 260/400 = 0.65.
	got := noErr(t)(k.CQI(1, []int{2}))
	if !almostEq(got, 0.65, 1e-12) {
		t.Fatalf("CQI = %g, want 0.65", got)
	}

	// Primary T1 with {T2, T3}:
	// r_2: ω=100 (F); τ: G scanned by T2 and T3 (h_G = 2, primary does
	// not scan G) → τ_2 = (1 − 1/2)·50 = 25 → r_2 = (360−100−25)/400 = 0.5875.
	// r_3: ω=0; τ_3 = 25 → r_3 = (100·1.0 − 25)/100 = 0.75.
	// CQI = (0.5875 + 0.75)/2 = 0.66875.
	got = noErr(t)(k.CQI(1, []int{2, 3}))
	if !almostEq(got, 0.66875, 1e-12) {
		t.Fatalf("CQI = %g, want 0.66875", got)
	}
}

// TestCQIFalseScanEntries pins the semantics of explicit false entries in
// a Scans map, which the flat index encodes as "in the scan list, not in
// the membership bitset": a false entry still contributes ω against a
// primary that truly scans the table (the membership test is on the
// primary's set), but never counts toward h_f and never marks the
// template as a sharer.
func TestCQIFalseScanEntries(t *testing.T) {
	// T7 "scans" G only nominally (explicit false), T8 nominally reads F
	// (false) and truly scans G.
	k := testKnowledge(TemplateStats{
		ID: 7, IsolatedLatency: 300, IOFraction: 1.0,
		Scans: map[string]bool{"G": false}, SpoilerLatency: map[int]float64{},
	}, TemplateStats{
		ID: 8, IsolatedLatency: 200, IOFraction: 1.0,
		Scans: map[string]bool{"F": false, "G": true}, SpoilerLatency: map[int]float64{},
	})

	// Primary T1 (truly scans F) with {T3, T8}:
	// r_3: ω=0; h_G counts T3 and T8 (both truly scan G) → τ_3 = 25 →
	//      r_3 = (100·1.0 − 25)/100 = 0.75.
	// r_8: ω = s_F = 100 — T8's F entry is false, but ω membership tests
	//      the PRIMARY's set; τ_8 = 25 → r_8 = (200 − 100 − 25)/200 = 0.375.
	got := noErr(t)(k.CQI(1, []int{3, 8}))
	if !almostEq(got, (0.75+0.375)/2, 1e-12) {
		t.Fatalf("CQI = %g, want %g", got, (0.75+0.375)/2)
	}

	// Adding T7 must not raise h_G (its G entry is false):
	// r_7 = (300·1.0 − 0 − 25)/300 = 275/300; r_3 and r_8 unchanged.
	got = noErr(t)(k.CQI(1, []int{3, 7, 8}))
	want := (0.75 + 275.0/300.0 + 0.375) / 3
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("CQI = %g, want %g", got, want)
	}
}

func TestCQITruncatesNegative(t *testing.T) {
	// A template whose shared scans exceed its total I/O time: T5 scans F
	// (100 s shared) but has only 60 s of I/O in isolation.
	k := testKnowledge(TemplateStats{
		ID: 5, IsolatedLatency: 100, IOFraction: 0.6,
		Scans: map[string]bool{"F": true}, SpoilerLatency: map[int]float64{},
	})
	got := noErr(t)(k.CQI(1, []int{5}))
	if got != 0 {
		t.Fatalf("CQI = %g, want 0 (negative estimates truncate)", got)
	}
}

func TestCQIEmptyMix(t *testing.T) {
	k := testKnowledge()
	if noErr(t)(k.CQI(1, nil)) != 0 {
		t.Fatal("empty mix must have zero intensity")
	}
}

func TestBaselineIO(t *testing.T) {
	k := testKnowledge()
	// Mean of p: (0.9 + 1.0)/2 = 0.95, no interaction terms.
	got := noErr(t)(k.BaselineIO([]int{2, 3}))
	if !almostEq(got, 0.95, 1e-12) {
		t.Fatalf("BaselineIO = %g, want 0.95", got)
	}
	if noErr(t)(k.BaselineIO(nil)) != 0 {
		t.Fatal("empty mix must be 0")
	}
}

func TestPositiveIO(t *testing.T) {
	k := testKnowledge()
	// Primary T1 with {T2, T3}: r_2 = (360−100)/400 = 0.65 (ω only),
	// r_3 = 1.0 (no shared scans with primary). Mean = 0.825.
	got := noErr(t)(k.PositiveIO(1, []int{2, 3}))
	if !almostEq(got, 0.825, 1e-12) {
		t.Fatalf("PositiveIO = %g, want 0.825", got)
	}
	if noErr(t)(k.PositiveIO(1, nil)) != 0 {
		t.Fatal("empty mix must be 0")
	}
}

func TestVariantOrderingUnderSharing(t *testing.T) {
	// With shared scans present, CQI ≤ PositiveIO ≤ BaselineIO — each
	// refinement subtracts more shared I/O.
	k := testKnowledge()
	c := noErr(t)(k.CQI(1, []int{2, 3}))
	p := noErr(t)(k.PositiveIO(1, []int{2, 3}))
	b := noErr(t)(k.BaselineIO([]int{2, 3}))
	if !(c <= p && p <= b) {
		t.Fatalf("ordering violated: CQI %g, Positive %g, Baseline %g", c, p, b)
	}
}

func TestCQIForStatsAdhocPrimary(t *testing.T) {
	k := testKnowledge()
	adhoc := TemplateStats{
		ID: 99, IsolatedLatency: 500, IOFraction: 0.9,
		Scans: map[string]bool{"G": true},
	}
	// T3 shares G with the ad-hoc primary: ω_3 = 50 → r_3 = (100−50)/100 = 0.5.
	got := noErr(t)(k.CQIForStats(adhoc, []int{3}))
	if !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("CQIForStats = %g, want 0.5", got)
	}
}

func TestKnowledgeHelpers(t *testing.T) {
	k := testKnowledge()
	ids := k.IDs()
	if len(ids) != 4 || ids[0] != 1 || ids[3] != 4 {
		t.Fatalf("IDs = %v", ids)
	}
	if _, ok := k.Template(99); ok {
		t.Fatal("unknown template must not resolve")
	}
	scans := k.ScanTimes()
	scans["F"] = 999
	if k.ScanTime("F") != 100 {
		t.Fatal("ScanTimes must return a copy")
	}
	all := k.Templates()
	if len(all) != 4 || all[0].ID != 1 || all[3].ID != 4 {
		t.Fatalf("Templates = %+v", all)
	}
	// A later duplicate ID replaces the earlier one.
	k = testKnowledge(TemplateStats{ID: 1, IsolatedLatency: 50})
	if ts, _ := k.Template(1); ts.IsolatedLatency != 50 || ts.Scans == nil || ts.SpoilerLatency == nil {
		t.Fatalf("duplicate ID: template 1 = %+v", ts)
	}
	if n := len(k.IDs()); n != 4 {
		t.Fatalf("duplicate ID: %d templates, want 4", n)
	}
}

// TestNewKnowledgeCopiesInputs: the knowledge base keeps its own copies
// of the scan and spoiler maps, so a caller mutating its inputs after
// NewKnowledge returns changes neither the stored stats nor the index
// built from them.
func TestNewKnowledgeCopiesInputs(t *testing.T) {
	t1 := TemplateStats{ID: 1, IsolatedLatency: 200, IOFraction: 0.8,
		Scans: map[string]bool{"F": true}, SpoilerLatency: map[int]float64{2: 400}}
	t2 := TemplateStats{ID: 2, IsolatedLatency: 400, IOFraction: 0.9,
		Scans: map[string]bool{"F": true, "G": true}, SpoilerLatency: map[int]float64{2: 900}}
	k := NewKnowledge(map[string]float64{"F": 100, "G": 50}, []TemplateStats{t1, t2})
	p := newPredictor(k, map[int]map[int]QSModel{2: {1: {Mu: 1, B: 0.1}, 2: {Mu: 0.5, B: 0.2}}})
	read := func() (TemplateStats, Continuum, float64, float64) {
		ts, _ := k.Template(2)
		cont, _ := k.ContinuumFor(1, 2)
		return ts, cont, noErr(t)(k.CQI(1, []int{2})), noErr(t)(p.PredictKnown(1, []int{2}))
	}
	ts0, cont0, cqi0, pred0 := read()
	t1.SpoilerLatency[2] = 10_000
	t2.Scans["F"] = false
	t2.Scans["Z"] = true
	delete(t2.SpoilerLatency, 2)
	ts1, cont1, cqi1, pred1 := read()
	if len(ts1.Scans) != len(ts0.Scans) || !ts1.Scans["F"] || ts1.Scans["Z"] || ts1.SpoilerLatency[2] != 900 {
		t.Fatalf("Template(2) changed with the caller's maps: %+v", ts1)
	}
	if cont1 != cont0 || cqi1 != cqi0 || pred1 != pred0 {
		t.Fatalf("continuum %+v→%+v, CQI %g→%g, PredictKnown %g→%g after mutating the inputs",
			cont0, cont1, cqi0, cqi1, pred0, pred1)
	}
}

// TestUnknownTemplateErrors: every knowledge-base read returns an error
// wrapping ErrUnknownTemplate for an unknown (or negative) ID, as primary
// or as neighbor, instead of panicking.
func TestUnknownTemplateErrors(t *testing.T) {
	k := testKnowledge()
	adhoc := TemplateStats{ID: 99, IsolatedLatency: 500, IOFraction: 0.9, Scans: map[string]bool{"G": true}}
	for _, id := range []int{12345, -5} {
		calls := map[string]func() (float64, error){
			"CQI primary":    func() (float64, error) { return k.CQI(id, []int{2}) },
			"CQI neighbor":   func() (float64, error) { return k.CQI(1, []int{2, id}) },
			"CQI empty mix":  func() (float64, error) { return k.CQI(id, nil) },
			"PositiveIO":     func() (float64, error) { return k.PositiveIO(id, []int{2}) },
			"PositiveIO mix": func() (float64, error) { return k.PositiveIO(1, []int{id}) },
			"BaselineIO":     func() (float64, error) { return k.BaselineIO([]int{2, id}) },
			"CQIForStats":    func() (float64, error) { return k.CQIForStats(adhoc, []int{id}) },
			"OperatorModel": func() (float64, error) {
				return NewOperatorModel(k).Predict(adhoc, []StageProfile{{Class: StageClassCPU, IsolatedSeconds: 1}}, []int{3, id})
			},
		}
		for name, call := range calls {
			if _, err := call(); !errors.Is(err, ErrUnknownTemplate) {
				t.Errorf("%s(%d): err = %v, want ErrUnknownTemplate", name, id, err)
			}
		}
	}
}

func TestObservationMPL(t *testing.T) {
	o := Observation{Primary: 1, Concurrent: []int{2, 3}}
	if o.MPL() != 3 {
		t.Fatalf("MPL = %d, want 3", o.MPL())
	}
}

func TestSpoilerSlowdown(t *testing.T) {
	ts := TemplateStats{IsolatedLatency: 100, SpoilerLatency: map[int]float64{3: 400}}
	if ts.SpoilerSlowdown(3) != 4 {
		t.Fatal("slowdown wrong")
	}
	if ts.SpoilerSlowdown(5) != 0 {
		t.Fatal("missing MPL must yield 0")
	}
	if (TemplateStats{}).SpoilerSlowdown(3) != 0 {
		t.Fatal("zero isolated latency must yield 0")
	}
}

// TestCQIInterningOrder pins τ's summation order and its per-sharer
// factor. Tables are first seen in reverse name order (T1 scans D, T2 C,
// T3 B and C), and the three scans of T4 (A, B, C) are each shared by
// all three concurrents of {4, 4, 4}, so every one is a τ candidate with
// h_f = 3. The oracle sums τ_4 = (1 − 1/3)·s_A + (1 − 1/3)·s_B +
// (1 − 1/3)·s_C in name order. The scan times make r_4 = 1 − τ_4 move by
// an ulp when τ is summed in first-seen order or when 1 − 1/3 is taken
// as an exactly rounded constant.
func TestCQIInterningOrder(t *testing.T) {
	scans := func(tables ...string) map[string]bool {
		s := map[string]bool{}
		for _, f := range tables {
			s[f] = true
		}
		return s
	}
	kb := &oracleKB{
		scanTime: map[string]float64{"A": 0.01, "B": 0.01, "C": 0.25, "D": 5},
		tmpl: map[int]TemplateStats{
			1: {ID: 1, IsolatedLatency: 10, IOFraction: 1, Scans: scans("D")},
			2: {ID: 2, IsolatedLatency: 10, IOFraction: 1, Scans: scans("C")},
			3: {ID: 3, IsolatedLatency: 10, IOFraction: 1, Scans: scans("B", "C")},
			4: {ID: 4, IsolatedLatency: 1, IOFraction: 1, Scans: scans("A", "B", "C")},
		},
	}
	p := kb.predictor()
	idx := p.know.idx
	for f, want := range map[string]int{"A": 0, "B": 1, "C": 2, "D": 3} {
		if got := idx.tableID[f]; got != want {
			t.Errorf("table %s interned as %d, want %d (sorted-name order)", f, got, want)
		}
	}
	mix := []int{4, 4, 4}
	r, want := kb.oracleCQI(kb.tmpl[1].Scans, mix)
	row := idx.row(idx.posOf(1))
	terms := make([]float64, len(mix))
	got, err := idx.cqiSlot(&row, mix, terms)
	if err != nil {
		t.Fatal(err)
	}
	for i := range terms {
		if math.Float64bits(terms[i]) != math.Float64bits(want[i]) {
			t.Errorf("r_4 term %d = %v, oracle %v", i, terms[i], want[i])
		}
	}
	if math.Float64bits(got) != math.Float64bits(r) {
		t.Errorf("CQI = %v, oracle %v", got, r)
	}
}
