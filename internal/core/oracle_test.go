package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// naively against the primary's scan set ps: ω_c (Eq. 2) sums s_f over
// c's scans that the primary reads; τ_c (Eq. 3) sums (1 − 1/h_f)·s_f over
// c's other scans, where h_f counts the concurrents that scan f and only
// h_f > 1 saves anything. c's scans are every key of its Scans map in
// table order; "reads"/"scans" mean the key maps to true.
func (kb *oracleKB) oracleR(ps map[string]bool, concurrent []int, c int) float64 {
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

// oracleCQI is Eq. 5 for a primary with scan set ps: the mean of the r_c
// terms in request order. It also returns the terms.
func (kb *oracleKB) oracleCQI(ps map[string]bool, concurrent []int) (float64, []float64) {
	terms := make([]float64, len(concurrent))
	var sum float64
	for i, c := range concurrent {
		terms[i] = kb.oracleR(ps, concurrent, c)
		sum += terms[i]
	}
	return sum / float64(len(concurrent)), terms
}

// oracleStages is the operator model's stage sum, written naively: CPU
// and cached stages cost their isolated time; a sequential scan of f is
// slowed by the r_c terms of the concurrents that do not scan f
// themselves; random I/O by every term.
func (kb *oracleKB) oracleStages(stages []StageProfile, concurrent []int, terms []float64) float64 {
	var total float64
	for _, st := range stages {
		load := 0.0
		for i, c := range concurrent {
			if st.Class == StageClassSeqIO && kb.tmpl[c].Scans[st.Table] {
				continue
			}
			load += terms[i]
		}
		if st.Class == StageClassCPU || st.Class == StageClassCached {
			total += st.IsolatedSeconds
		} else {
			total += st.IsolatedSeconds * (1 + load)
		}
	}
	return total
}

// oracleLatency is the QS → continuum pipeline at CQI r (Eqs. 6–7):
// l_min + (µ·r + b)·(l_max − l_min).
func oracleLatency(t TemplateStats, m QSModel, mpl int, r float64) float64 {
	lmax := t.SpoilerLatency[mpl]
	return t.IsolatedLatency + (m.Mu*r+m.B)*(lmax-t.IsolatedLatency)
}

// oracleMaxMPL is the highest MPL a random knowledge base spans: long
// mixes run to 12 concurrents, past maxSharers.
const oracleMaxMPL = 13

// oracleShape selects what a random knowledge base exercises.
type oracleShape struct {
	tables    int  // distinct tables available to scan
	scans     int  // upper bound on scans per template
	sparseIDs bool // far-flung and negative IDs (map slot lookup)
	gaps      bool // QS models at only some MPLs above 2
}

// randomOracleKB draws a seeded knowledge base: 4–16 templates, scan
// sets with explicit false entries and unset scan times, some templates
// with iso ≤ 0, and QS models at every MPL from 2 to maxMPL (or, with
// gaps, at MPL 2 and a random subset of the others).
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
		spoiler := randomSpoiler(rng, iso, maxMPL)
		kb.tmpl[id] = TemplateStats{
			ID: id, IsolatedLatency: iso, IOFraction: rng.Float64(),
			Scans: scans, SpoilerLatency: spoiler,
		}
	}
	for mpl := 2; mpl <= maxMPL; mpl++ {
		if shape.gaps && mpl > 2 && rng.Intn(2) == 0 {
			continue
		}
		kb.qs[mpl] = randomQS(rng, kb.ids())
	}
	return kb
}

// randomSpoiler draws a spoiler latency above |iso| at every MPL.
func randomSpoiler(rng *rand.Rand, iso float64, maxMPL int) map[int]float64 {
	spoiler := map[int]float64{}
	for mpl := 2; mpl <= maxMPL; mpl++ {
		spoiler[mpl] = math.Abs(iso)*float64(mpl) + 1 + rng.Float64()
	}
	return spoiler
}

// randomQS draws one QS model per ID.
func randomQS(rng *rand.Rand, ids []int) map[int]QSModel {
	models := map[int]QSModel{}
	for _, id := range ids {
		models[id] = QSModel{Mu: 0.2 + rng.Float64(), B: 0.3 * rng.Float64()}
	}
	return models
}

// oracleAdhoc is an ad-hoc primary: a template outside the knowledge
// base, its QS model at every MPL, and its operator stages.
type oracleAdhoc struct {
	stats  TemplateStats
	qs     map[int]QSModel
	stages []StageProfile
}

// randomAdhoc draws an ad-hoc primary with a valid continuum at every
// MPL and a scan set with explicit false entries and "u" tables that no
// known template scans. Its stages scan known and unknown tables alike.
func (kb *oracleKB) randomAdhoc(rng *rand.Rand, shape oracleShape, maxMPL int) oracleAdhoc {
	table := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("u%03d", rng.Intn(8))
		}
		return fmt.Sprintf("t%03d", rng.Intn(shape.tables))
	}
	iso := 10 + 500*rng.Float64()
	scans := map[string]bool{}
	for s := 1 + rng.Intn(shape.scans); s > 0; s-- {
		scans[table()] = rng.Intn(4) != 0
	}
	a := oracleAdhoc{
		stats: TemplateStats{
			ID: 1 << 30, IsolatedLatency: iso, IOFraction: rng.Float64(),
			Scans: scans, SpoilerLatency: randomSpoiler(rng, iso, maxMPL),
		},
		qs:     map[int]QSModel{},
		stages: make([]StageProfile, 1+rng.Intn(5)),
	}
	for mpl := 2; mpl <= maxMPL; mpl++ {
		a.qs[mpl] = randomQS(rng, []int{0})[0]
	}
	for i := range a.stages {
		st := StageProfile{Class: StageClass(rng.Intn(4)), IsolatedSeconds: 100 * rng.Float64()}
		if st.Class == StageClassSeqIO {
			st.Table = table()
		}
		a.stages[i] = st
	}
	return a
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
	var ts []TemplateStats
	for _, t := range kb.tmpl {
		ts = append(ts, t)
	}
	return newPredictor(NewKnowledge(kb.scanTime, ts), kb.qs)
}

// TestCQIMatchesReferenceOracle prices random mixes over seeded random
// knowledge bases through every entry point and requires each to equal
// the naive oracle bit for bit: for known primaries CQI, CQIForStats,
// PredictKnown, PredictBatch, and PredictExplain's per-neighbor terms;
// for ad-hoc primaries CQIForStats, PredictNew and OperatorModel.Predict.
// A batch with one failing mix planted among them must fail with
// PredictKnown's error for that mix, named by its position.
// The shapes cover more than 64 tables (multi-word masks), sparse and
// negative IDs, MPL gaps, explicit false scan entries, iso ≤ 0,
// duplicate concurrents, mixes longer than the sharer counters hold, and
// ad-hoc primaries that read tables no known template scans; the test
// fails if a draw never reaches one of them.
//
// Every knowledge base is priced three ways: the predictor built from
// it, the same predictor after WriteSnapshot → LoadPredictor, and a
// fresh build swapped into a Sharded that served the previous round's
// base. A base with a negative isolated latency is one no measurement
// produces, so LoadPredictor must refuse it instead.
func TestCQIMatchesReferenceOracle(t *testing.T) {
	shapes := []oracleShape{
		{tables: 6, scans: 4},
		{tables: 40, scans: 6, gaps: true},
		{tables: 90, scans: 40},
		{tables: 8, scans: 4, sparseIDs: true},
		{tables: 80, scans: 40, sparseIDs: true},
	}
	rng := rand.New(rand.NewSource(15))
	var cov oracleCoverage
	var sh *Sharded
	for round := 0; round < 40; round++ {
		shape := shapes[round%len(shapes)]
		kb := randomOracleKB(rng, shape, oracleMaxMPL)
		p := kb.predictor()
		if p.know.idx.maskW > 1 {
			cov.wide++
		}

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
		kb.check(t, rng, shape, variants, 32, 4, &cov)
	}
	if cov.wide == 0 || cov.falseShared == 0 || cov.isoZero == 0 || cov.dups == 0 || cov.long == 0 ||
		cov.persisted == 0 || cov.gaps == 0 || cov.adhocFalse == 0 || cov.adhocForeign == 0 {
		t.Fatalf("draws missed a case: %+v", cov)
	}
}

// FuzzOracle holds every entry point to the naive oracle on knowledge
// bases drawn from a fuzzed seed and shape: up to 256 tables, sparse and
// negative IDs, MPL gaps, and mixes up to 12 concurrents long.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), false, false)
	f.Add(int64(2), uint8(90), uint8(40), false, true)
	f.Add(int64(3), uint8(8), uint8(4), true, true)
	f.Add(int64(4), uint8(200), uint8(63), true, false)
	f.Fuzz(func(t *testing.T, seed int64, tables, scans uint8, sparseIDs, gaps bool) {
		shape := oracleShape{tables: 1 + int(tables), scans: 1 + int(scans)%64, sparseIDs: sparseIDs, gaps: gaps}
		rng := rand.New(rand.NewSource(seed))
		kb := randomOracleKB(rng, shape, oracleMaxMPL)
		kb.check(t, rng, shape, []oracleVariant{{"built", kb.predictor()}}, 8, 2, &oracleCoverage{})
	})
}

// check draws nMixes mixes for every known primary and for nAdhoc ad-hoc
// primaries, and prices each through every variant against the oracle.
func (kb *oracleKB) check(t testing.TB, rng *rand.Rand, shape oracleShape, variants []oracleVariant, nMixes, nAdhoc int, cov *oracleCoverage) {
	t.Helper()
	ids := kb.ids()
	draw := func() [][]int {
		mixes := make([][]int, nMixes)
		for i := range mixes {
			m := 1 + rng.Intn(4)
			if i%8 == 0 {
				m = 5 + rng.Intn(oracleMaxMPL-5)
			}
			mix := make([]int, m)
			for j := range mix {
				mix[j] = ids[rng.Intn(len(ids))]
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
		return mixes
	}
	var pbuf PredictBuffer
	var ebuf ExplainBuffer
	for _, primary := range ids {
		mixes := draw()
		for _, mix := range mixes {
			cov.note(kb, kb.tmpl[primary].Scans, mix)
		}
		for _, v := range variants {
			kb.checkKnown(t, v, primary, mixes, &pbuf, &ebuf, cov)
			kb.checkBatchFailure(t, rng, v, primary, mixes, &pbuf)
		}
	}
	for i := 0; i < nAdhoc; i++ {
		a := kb.randomAdhoc(rng, shape, oracleMaxMPL)
		mixes := draw()
		for _, mix := range mixes {
			cov.noteAdhoc(kb, a.stats.Scans, mix)
		}
		for _, v := range variants {
			kb.checkAdhoc(t, v, a, mixes)
		}
	}
}

// checkKnown prices a known primary's mixes. A mix at an MPL without QS
// models must fail with ErrUntrainedMPL.
func (kb *oracleKB) checkKnown(t testing.TB, v oracleVariant, primary int, mixes [][]int, pbuf *PredictBuffer, ebuf *ExplainBuffer, cov *oracleCoverage) {
	t.Helper()
	p, ps := v.p, kb.tmpl[primary].Scans
	var trained [][]int
	for _, mix := range mixes {
		if kb.qs[len(mix)+1] != nil {
			trained = append(trained, mix)
		}
	}
	batch, err := p.PredictBatch(pbuf, primary, trained)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range mixes {
		r, terms := kb.oracleCQI(ps, mix)
		if got, err := p.know.CQI(primary, mix); err != nil || math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("%s: CQI(%d, %v) = %v, %v; oracle %v", v.name, primary, mix, got, err, r)
		}
		if got, err := p.know.CQIForStats(kb.tmpl[primary], mix); err != nil || math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("%s: CQIForStats(%d, %v) = %v, %v; oracle %v", v.name, primary, mix, got, err, r)
		}
		mpl := len(mix) + 1
		got, err := p.PredictKnown(primary, mix)
		if kb.qs[mpl] == nil {
			_, xerr := p.PredictExplain(ebuf, primary, mix)
			if !errors.Is(err, ErrUntrainedMPL) || !errors.Is(xerr, ErrUntrainedMPL) {
				t.Fatalf("%s: untrained MPL %d: PredictKnown err %v, PredictExplain err %v", v.name, mpl, err, xerr)
			}
			cov.gaps++
			continue
		}
		want := oracleLatency(kb.tmpl[primary], kb.qs[mpl][primary], mpl, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: PredictKnown(%d, %v) = %v, oracle %v", v.name, primary, mix, got, want)
		}
		if math.Float64bits(batch[0]) != math.Float64bits(got) {
			t.Fatalf("%s: PredictBatch (%d, %v) = %v, PredictKnown %v", v.name, primary, mix, batch[0], got)
		}
		batch = batch[1:]
		if _, err := p.PredictExplain(ebuf, primary, mix); err != nil {
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

// oracleUnknownID is a template ID no random knowledge base holds.
const oracleUnknownID = 1 << 29

// checkBatchFailure plants one failing mix at a random position among a
// known primary's mixes at trained MPLs: an unknown concurrent, a mix
// past every trained MPL, or an empty mix for an unknown primary (first,
// since an unknown primary fails every mix). PredictBatch must name that
// mix with PredictKnown's error for it and leave no results.
func (kb *oracleKB) checkBatchFailure(t testing.TB, rng *rand.Rand, v oracleVariant, primary int, mixes [][]int, pbuf *PredictBuffer) {
	t.Helper()
	var trained [][]int
	for _, mix := range mixes {
		if kb.qs[len(mix)+1] != nil {
			trained = append(trained, mix)
		}
	}
	at := rng.Intn(len(trained) + 1)
	var bad []int
	switch rng.Intn(3) {
	case 0:
		bad = []int{oracleUnknownID}
	case 1:
		bad = make([]int, oracleMaxMPL)
		for i := range bad {
			bad[i] = primary
		}
	default:
		primary, bad, at = oracleUnknownID, []int{}, 0
	}
	batch := slices.Insert(slices.Clone(trained), at, bad)
	_, want := v.p.PredictKnown(primary, bad)
	_, err := v.p.PredictBatch(pbuf, primary, batch)
	if want == nil || err == nil || err.Error() != fmt.Sprintf("core: batch mix %d: %v", at, want) {
		t.Fatalf("%s: PredictBatch(%d) with %v planted at %d: err %v; PredictKnown err %v", v.name, primary, bad, at, err, want)
	}
	if res := pbuf.Results(); len(res) != 0 {
		t.Fatalf("%s: failed PredictBatch left %d results", v.name, len(res))
	}
}

// checkAdhoc prices an ad-hoc primary's mixes through CQIForStats, the
// operator model, and PredictNew with its QS model and measured spoiler
// latency. A mix at an MPL without reference models must fail
// PredictNew with ErrUntrainedMPL.
func (kb *oracleKB) checkAdhoc(t testing.TB, v oracleVariant, a oracleAdhoc, mixes [][]int) {
	t.Helper()
	p := v.p
	om := NewOperatorModel(p.know)
	for _, mix := range mixes {
		r, terms := kb.oracleCQI(a.stats.Scans, mix)
		if got, err := p.know.CQIForStats(a.stats, mix); err != nil || math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("%s: ad-hoc CQIForStats(%v, %v) = %v, %v; oracle %v", v.name, a.stats.Scans, mix, got, err, r)
		}
		want := kb.oracleStages(a.stages, mix, terms)
		if got, err := om.Predict(a.stats, a.stages, mix); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: OperatorModel.Predict(%v, %v) = %v, %v; oracle %v", v.name, a.stages, mix, got, err, want)
		}
		mpl := len(mix) + 1
		qs := a.qs[mpl]
		got, err := p.PredictNew(a.stats, mix, NewTemplateOptions{QS: &qs})
		if kb.qs[mpl] == nil {
			if !errors.Is(err, ErrUntrainedMPL) {
				t.Fatalf("%s: untrained MPL %d: PredictNew err %v", v.name, mpl, err)
			}
			continue
		}
		if want := oracleLatency(a.stats, qs, mpl, r); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: PredictNew(%v, %v) = %v, %v; oracle %v", v.name, a.stats.Scans, mix, got, err, want)
		}
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
	wide         int // knowledge bases with more than 64 interned tables
	persisted    int // knowledge bases priced after a snapshot round trip
	falseShared  int // explicit false entries that still earn τ
	isoZero      int // concurrents with iso ≤ 0
	dups         int // concurrents listed twice in one mix
	long         int // tables with h_f > maxSharers that the primary does not read
	gaps         int // mixes at an MPL without QS models
	adhocFalse   int // ad-hoc explicit false entries on a table a concurrent scans
	adhocForeign int // ad-hoc scans of a table no known template scans
}

// note counts what one mix reaches against a primary with scan set ps.
// An explicit false entry earns τ when two concurrents truly scan the
// table and the primary does not.
func (cov *oracleCoverage) note(kb *oracleKB, ps map[string]bool, mix []int) {
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
			if ps[f] {
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

// noteAdhoc counts what an ad-hoc primary with scan set ps reaches in
// one mix.
func (cov *oracleCoverage) noteAdhoc(kb *oracleKB, ps map[string]bool, mix []int) {
	for f, truly := range ps {
		scanned := false
		for _, t := range kb.tmpl {
			scanned = scanned || t.Scans[f]
		}
		if !scanned {
			cov.adhocForeign++
		}
		for _, c := range mix {
			if !truly && kb.tmpl[c].Scans[f] {
				cov.adhocFalse++
			}
		}
	}
}
