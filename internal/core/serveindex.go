package core

import "fmt"

// The serving index flattens the per-prediction model lookups the same way
// cqiIndex flattens the knowledge base: predictKnown used to chase three
// maps per call (refs[mpl] → refs.Model(primary) → ContinuumFor), each a
// hash + pointer hop. servIndex precomputes one servCell per
// (template slot, trained MPL) pair — QS slope/intercept and continuum
// endpoints side by side in a contiguous slab — so a prediction is slot
// arithmetic, one cell load, and the CQI kernel.
//
// The index is keyed by the cqiIndex snapshot it was built against:
// mutating the knowledge base invalidates the cqiIndex, which makes the
// identity check in serving() fail and triggers a rebuild. Reference
// models are add-only after Train, so no separate invalidation hook is
// needed.

const (
	cellHasQS uint8 = 1 << iota
	cellHasCont
)

// servCell is one (template, MPL) serving entry: the fitted QS model and
// the performance continuum, pre-resolved. flags record which halves
// exist so missing-model errors stay cheap and precise.
type servCell struct {
	mu, b      float64 // QS model c = µ·r + b
	cmin, cmax float64 // continuum [l_min, l_max]
	flags      uint8
}

// servIndex is an immutable serving snapshot for one cqiIndex.
type servIndex struct {
	idx     *cqiIndex // the knowledge snapshot this was built against
	nm      int       // number of trained MPLs
	minMPL  int
	mplSlot []int32    // mpl-minMPL → column, -1 untrained
	cells   []servCell // n×nm slab: cells[slot*nm+col]
}

// mplIdx maps an MPL to its column in the cell slab, or -1 when no
// reference models were trained at that MPL.
//
//contender:hotpath
func (s *servIndex) mplIdx(mpl int) int {
	d := mpl - s.minMPL
	if uint(d) < uint(len(s.mplSlot)) {
		return int(s.mplSlot[d])
	}
	return -1
}

// serving returns the serving index for the given knowledge snapshot,
// rebuilding it the first time the snapshot is seen. The fast path is a
// single atomic load plus a pointer compare; rebuilds serialize on the
// predictor's build mutex.
func (p *Predictor) serving(idx *cqiIndex) *servIndex {
	if s := p.serv.Load(); s != nil && s.idx == idx {
		return s
	}
	p.smu.Lock()
	defer p.smu.Unlock()
	if s := p.serv.Load(); s != nil && s.idx == idx {
		return s
	}
	s := p.buildServing(idx)
	p.serv.Store(s)
	return s
}

// Prime forces the knowledge base's hot-path index and the serving index
// to be built now, so the first prediction served to a latency-sensitive
// caller does not pay the one-time construction cost.
func (p *Predictor) Prime() {
	p.serving(p.Know.index())
}

func (p *Predictor) buildServing(idx *cqiIndex) *servIndex {
	mpls := p.MPLs()
	s := &servIndex{idx: idx, nm: len(mpls)}
	if len(mpls) == 0 {
		return s
	}
	s.minMPL = mpls[0]
	s.mplSlot = make([]int32, mpls[len(mpls)-1]-s.minMPL+1)
	for i := range s.mplSlot {
		s.mplSlot[i] = -1
	}
	for col, mpl := range mpls {
		s.mplSlot[mpl-s.minMPL] = int32(col)
	}
	s.cells = make([]servCell, idx.n*s.nm)
	for id, slot := range idx.pos {
		for col, mpl := range mpls {
			cell := &s.cells[slot*s.nm+col]
			if qs, ok := p.refs[mpl].Model(id); ok {
				cell.mu, cell.b = qs.Mu, qs.B
				cell.flags |= cellHasQS
			}
			if cont, ok := p.Know.ContinuumFor(id, mpl); ok {
				cell.cmin, cell.cmax = cont.Min, cont.Max
				cell.flags |= cellHasCont
			}
		}
	}
	return s
}

// cellFor validates a (primary, mix-size) pair against the serving index
// and returns the matching cell plus the primary's slot. The error cases
// and messages mirror the historical predictKnown checks exactly, in the
// same precedence order: empty mix, untrained MPL, unknown template,
// missing QS model, missing continuum.
//
//contender:hotpath
func (p *Predictor) cellFor(s *servIndex, idx *cqiIndex, primary, nconc int) (*servCell, int, error) {
	if nconc == 0 {
		return nil, 0, fmt.Errorf("core: %w: predicting template %d at MPL 1 (use the isolated latency)", ErrEmptyMix, primary)
	}
	mpl := nconc + 1
	col := s.mplIdx(mpl)
	if col < 0 {
		return nil, 0, fmt.Errorf("core: %w: no reference models at MPL %d", ErrUntrainedMPL, mpl)
	}
	si := idx.posOf(primary)
	if si < 0 {
		// Match the historical lookup order: a template that still has a
		// QS model but was removed from the knowledge base fails on the
		// continuum, not on template resolution.
		if _, ok := p.refs[mpl].Model(primary); ok {
			return nil, 0, fmt.Errorf("core: %w: no continuum for template %d at MPL %d", ErrUntrainedMPL, primary, mpl)
		}
		return nil, 0, fmt.Errorf("core: %w: template %d", ErrUnknownTemplate, primary)
	}
	cell := &s.cells[si*s.nm+col]
	if cell.flags&cellHasQS == 0 {
		return nil, 0, fmt.Errorf("core: %w: no QS model for template %d at MPL %d", ErrUntrainedMPL, primary, mpl)
	}
	if cell.flags&cellHasCont == 0 {
		return nil, 0, fmt.Errorf("core: %w: no continuum for template %d at MPL %d", ErrUntrainedMPL, primary, mpl)
	}
	return cell, si, nil
}

// latency evaluates the full QS → continuum pipeline at CQI r:
// l_min + (µ·r + b)·(l_max − l_min), associated exactly like
// Continuum.Latency(QSModel.Point(r)).
//
//contender:hotpath
func (c *servCell) latency(r float64) float64 {
	return c.cmin + (c.mu*r+c.b)*(c.cmax-c.cmin)
}
