package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleKB is a knowledge base held as plain maps, for the reference
// oracle below. It feeds both the oracle and a Knowledge built from the
// same values, so the two never share an index or a code path.
type oracleKB struct {
	scanTime map[string]float64
	tmpl     map[int]TemplateStats
	qs       map[int]map[int]QSModel // MPL → template ID → model
}

// oracleR is Eq. 4 for concurrent c of the mix (DESIGN.md §1), written
// naively: ω_c (Eq. 2) sums s_f over c's scans that the primary reads;
// τ_c (Eq. 3) sums (1 − 1/h_f)·s_f over c's other scans, where h_f counts
// the concurrents that scan f and only h_f > 1 saves anything. c's scans
// are every key of its Scans map in table order; "reads"/"scans" mean the
// key maps to true.
func (kb *oracleKB) oracleR(primary int, concurrent []int, c int) float64 {
	ps := kb.tmpl[primary].Scans
	ct := kb.tmpl[c]
	var tables []string
	for f := range ct.Scans {
		tables = append(tables, f)
	}
	sort.Strings(tables)
	var omega, tau float64
	for _, f := range tables {
		if ps[f] {
			omega += kb.scanTime[f]
		}
	}
	for _, f := range tables {
		if ps[f] {
			continue
		}
		hf := 0
		for _, id := range concurrent {
			if kb.tmpl[id].Scans[f] {
				hf++
			}
		}
		if hf > 1 {
			tau += (1 - 1/float64(hf)) * kb.scanTime[f]
		}
	}
	if ct.IsolatedLatency <= 0 {
		return 0
	}
	r := (ct.IsolatedLatency*ct.IOFraction - omega - tau) / ct.IsolatedLatency
	if r < 0 {
		return 0
	}
	return r
}

// oracleCQI is Eq. 5: the mean of the r_c terms in request order. It
// also returns the terms.
func (kb *oracleKB) oracleCQI(primary int, concurrent []int) (float64, []float64) {
	terms := make([]float64, len(concurrent))
	var sum float64
	for i, c := range concurrent {
		terms[i] = kb.oracleR(primary, concurrent, c)
		sum += terms[i]
	}
	return sum / float64(len(concurrent)), terms
}

// oracleLatency is the QS → continuum pipeline at CQI r (Eqs. 6–7):
// l_min + (µ·r + b)·(l_max − l_min).
func (kb *oracleKB) oracleLatency(primary int, mpl int, r float64) float64 {
	t := kb.tmpl[primary]
	m := kb.qs[mpl][primary]
	lmax := t.SpoilerLatency[mpl]
	return t.IsolatedLatency + (m.Mu*r+m.B)*(lmax-t.IsolatedLatency)
}

// oracleShape selects what a random knowledge base exercises.
type oracleShape struct {
	tables    int  // distinct tables available to scan
	scans     int  // upper bound on scans per template
	sparseIDs bool // far-flung and negative IDs (map slot lookup)
}

// randomOracleKB draws a seeded knowledge base: 4–16 templates, scan
// sets with explicit false entries and unset scan times, some templates
// with iso ≤ 0, and QS models at every MPL from 2 to maxMPL.
func randomOracleKB(rng *rand.Rand, shape oracleShape, maxMPL int) *oracleKB {
	kb := &oracleKB{
		scanTime: map[string]float64{},
		tmpl:     map[int]TemplateStats{},
		qs:       map[int]map[int]QSModel{},
	}
	for f := 0; f < shape.tables; f++ {
		if rng.Intn(8) != 0 { // the rest stay unset: s_f = 0
			kb.scanTime[fmt.Sprintf("t%03d", f)] = 1 + 200*rng.Float64()
		}
	}
	n := 4 + rng.Intn(13)
	for len(kb.tmpl) < n {
		id := 1 + rng.Intn(3*n)
		if shape.sparseIDs {
			id = rng.Intn(200000) - 100000
		}
		if _, dup := kb.tmpl[id]; dup {
			continue
		}
		iso := 10 + 500*rng.Float64()
		switch rng.Intn(10) {
		case 0:
			iso = 0
		case 1:
			iso = -iso
		}
		scans := map[string]bool{}
		for s := 1 + rng.Intn(shape.scans); s > 0; s-- {
			scans[fmt.Sprintf("t%03d", rng.Intn(shape.tables))] = rng.Intn(5) != 0
		}
		spoiler := map[int]float64{}
		for mpl := 2; mpl <= maxMPL; mpl++ {
			spoiler[mpl] = math.Abs(iso)*float64(mpl) + 1 + rng.Float64()
		}
		kb.tmpl[id] = TemplateStats{
			ID: id, IsolatedLatency: iso, IOFraction: rng.Float64(),
			Scans: scans, SpoilerLatency: spoiler,
		}
	}
	for mpl := 2; mpl <= maxMPL; mpl++ {
		kb.qs[mpl] = map[int]QSModel{}
		for _, id := range kb.ids() {
			kb.qs[mpl][id] = QSModel{Mu: 0.2 + rng.Float64(), B: 0.3 * rng.Float64()}
		}
	}
	return kb
}

// ids returns the template IDs in ascending order, so seeded draws do not
// depend on map iteration order.
func (kb *oracleKB) ids() []int {
	var ids []int
	for id := range kb.tmpl {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// predictor builds a Knowledge and a Predictor from the oracle's maps.
func (kb *oracleKB) predictor() *Predictor {
	k := NewKnowledge()
	for f, s := range kb.scanTime {
		k.SetScanTime(f, s)
	}
	for _, t := range kb.tmpl {
		k.AddTemplate(t)
	}
	p := &Predictor{Know: k, refs: map[int]*ReferenceModels{}}
	for mpl, models := range kb.qs {
		p.refs[mpl] = NewReferenceModels(k, mpl)
		for id, m := range models {
			p.refs[mpl].Add(id, m)
		}
	}
	return p
}

// TestCQIMatchesReferenceOracle prices random mixes over seeded random
// knowledge bases through every serving entry point and requires each to
// equal the naive oracle bit for bit: CQI, PredictKnown, PredictBatch,
// and PredictExplain's per-neighbor terms. The shapes cover more than 64
// tables (multi-word masks), sparse and negative IDs, explicit false
// scan entries, iso ≤ 0, duplicate concurrents, and mixes longer than
// the sharer counters hold; the test fails if a draw never reaches one
// of them.
//
// Every knowledge base is priced three ways: the predictor built from
// it, the same predictor after WriteSnapshot → LoadPredictor, and a
// fresh build swapped into a Sharded that served the previous round's
// base. A base with a negative isolated latency is one no measurement
// produces, so LoadPredictor must refuse it instead.
func TestCQIMatchesReferenceOracle(t *testing.T) {
	const maxMPL = 13 // long mixes run to 12 concurrents, past maxSharers
	shapes := []oracleShape{
		{tables: 6, scans: 4},
		{tables: 40, scans: 6},
		{tables: 90, scans: 40},
		{tables: 8, scans: 4, sparseIDs: true},
		{tables: 80, scans: 40, sparseIDs: true},
	}
	rng := rand.New(rand.NewSource(15))
	var cov oracleCoverage
	var sh *Sharded
	for round := 0; round < 40; round++ {
		shape := shapes[round%len(shapes)]
		kb := randomOracleKB(rng, shape, maxMPL)
		p := kb.predictor()
		if p.Know.index().maskW > 1 {
			cov.wide++
		}
		ids := kb.ids()
		pick := func() int { return ids[rng.Intn(len(ids))] }

		variants := []oracleVariant{{"built", p}}
		var snap bytes.Buffer
		if err := kb.predictor().WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		switch loaded, err := LoadPredictor(&snap); {
		case kb.negativeIso():
			if err == nil {
				t.Fatalf("round %d: LoadPredictor accepted a negative isolated latency", round)
			}
		case err != nil:
			t.Fatalf("round %d: LoadPredictor: %v", round, err)
		default:
			variants = append(variants, oracleVariant{"persisted", loaded})
			cov.persisted++
		}
		if sh == nil {
			var err error
			if sh, err = NewSharded(kb.predictor()); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sh.Swap(kb.predictor()); err != nil {
			t.Fatal(err)
		}
		variants = append(variants, oracleVariant{"swapped", sh.Snapshot()})

		var pbuf PredictBuffer
		var ebuf ExplainBuffer
		for _, primary := range ids {
			mixes := make([][]int, 32)
			for i := range mixes {
				m := 1 + rng.Intn(4)
				if i%8 == 0 {
					m = 5 + rng.Intn(maxMPL-5)
				}
				mix := make([]int, m)
				for j := range mix {
					mix[j] = pick()
				}
				switch {
				case i%16 == 0: // one template throughout: h_f = m
					for j := range mix {
						mix[j] = mix[0]
					}
				case i%5 == 0 && m > 1:
					mix[m-1] = mix[0]
				}
				mixes[i] = mix
			}
			for _, mix := range mixes {
				cov.note(kb, primary, mix)
			}
			for _, v := range variants {
				p := v.p
				batch, err := p.PredictBatch(&pbuf, primary, mixes)
				if err != nil {
					t.Fatal(err)
				}
				for i, mix := range mixes {
					r, terms := kb.oracleCQI(primary, mix)
					want := kb.oracleLatency(primary, len(mix)+1, r)
					if got := p.Know.CQI(primary, mix); math.Float64bits(got) != math.Float64bits(r) {
						t.Fatalf("%s: CQI(%d, %v) = %v, oracle %v", v.name, primary, mix, got, r)
					}
					if got := p.Know.CQIForStats(kb.tmpl[primary], mix); math.Float64bits(got) != math.Float64bits(r) {
						t.Fatalf("%s: CQIForStats(%d, %v) = %v, oracle %v", v.name, primary, mix, got, r)
					}
					got, err := p.PredictKnown(primary, mix)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: PredictKnown(%d, %v) = %v, oracle %v", v.name, primary, mix, got, want)
					}
					if math.Float64bits(batch[i]) != math.Float64bits(want) {
						t.Fatalf("%s: PredictBatch mix %d (%d, %v) = %v, oracle %v", v.name, i, primary, mix, batch[i], want)
					}
					if _, err := p.PredictExplain(&ebuf, primary, mix); err != nil {
						t.Fatal(err)
					}
					for j, term := range terms {
						if math.Float64bits(ebuf.Intensity[j]) != math.Float64bits(term) {
							t.Fatalf("%s: PredictExplain(%d, %v) term %d = %v, oracle %v", v.name, primary, mix, j, ebuf.Intensity[j], term)
						}
					}
					if math.Float64bits(ebuf.CQI) != math.Float64bits(r) || math.Float64bits(ebuf.Total) != math.Float64bits(want) {
						t.Fatalf("%s: PredictExplain(%d, %v) = CQI %v total %v, oracle %v, %v", v.name, primary, mix, ebuf.CQI, ebuf.Total, r, want)
					}
				}
			}
		}
	}
	if cov.wide == 0 || cov.falseShared == 0 || cov.isoZero == 0 || cov.dups == 0 || cov.long == 0 || cov.persisted == 0 {
		t.Fatalf("draws missed a case: %+v", cov)
	}
}

// oracleVariant is one way of serving a random knowledge base.
type oracleVariant struct {
	name string
	p    *Predictor
}

// negativeIso reports whether some template has a negative isolated
// latency, which a snapshot refuses.
func (kb *oracleKB) negativeIso() bool {
	for _, t := range kb.tmpl {
		if t.IsolatedLatency < 0 {
			return true
		}
	}
	return false
}

// oracleCoverage counts the cases the draws reach.
type oracleCoverage struct {
	wide        int // knowledge bases with more than 64 interned tables
	persisted   int // knowledge bases priced after a snapshot round trip
	falseShared int // explicit false entries that still earn τ
	isoZero     int // concurrents with iso ≤ 0
	dups        int // concurrents listed twice in one mix
	long        int // tables with h_f > maxSharers that the primary does not read
}

// note counts what one mix reaches. An explicit false entry earns τ when
// two concurrents truly scan the table and the primary does not.
func (cov *oracleCoverage) note(kb *oracleKB, primary int, mix []int) {
	seen := map[int]bool{}
	for _, c := range mix {
		if seen[c] {
			cov.dups++
		}
		seen[c] = true
		ct := kb.tmpl[c]
		if ct.IsolatedLatency <= 0 {
			cov.isoZero++
		}
		for f, truly := range ct.Scans {
			if kb.tmpl[primary].Scans[f] {
				continue
			}
			hf := 0
			for _, id := range mix {
				if kb.tmpl[id].Scans[f] {
					hf++
				}
			}
			if hf > 1 && !truly {
				cov.falseShared++
			}
			if hf > maxSharers {
				cov.long++
			}
		}
	}
}
