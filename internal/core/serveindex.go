package core

import "fmt"

// The serving index flattens the per-prediction model lookups the same way
// cqiIndex flattens the knowledge base: predictKnown used to chase three
// maps per call (refs[mpl] → refs.Model(primary) → ContinuumFor), each a
// hash + pointer hop. servIndex precomputes one servCell per
// (template slot, trained MPL) pair — QS slope/intercept and continuum
// endpoints side by side in a contiguous slab — so a prediction is slot
// arithmetic, one cell load, and the CQI kernel. It is built with the
// predictor (newPredictor), over the same immutable knowledge base and
// reference models the predictor holds.

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

// servIndex is the predictor's immutable serving index.
type servIndex struct {
	nm      int // number of trained MPLs
	minMPL  int
	mplSlot []int32    // mpl-minMPL → column, -1 untrained
	cells   []servCell // n×nm slab: cells[slot*nm+col]
}

// mplIdx maps an MPL to its column in the cell slab, or -1 when no
// reference models were trained at that MPL.
func (s *servIndex) mplIdx(mpl int) int {
	d := mpl - s.minMPL
	if uint(d) < uint(len(s.mplSlot)) {
		return int(s.mplSlot[d])
	}
	return -1
}

// buildServing fills one cell per (template, trained MPL) pair from the
// reference models and the knowledge base's continua.
func (p *Predictor) buildServing() *servIndex {
	idx := p.know.idx
	mpls := p.MPLs()
	s := &servIndex{nm: len(mpls)}
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
			if cont, ok := p.know.ContinuumFor(id, mpl); ok {
				cell.cmin, cell.cmax = cont.Min, cont.Max
				cell.flags |= cellHasCont
			}
		}
	}
	return s
}

// cellFor validates a resolved primary and a mix size against the
// serving index and returns the matching cell. The error cases and
// messages mirror the historical predictKnown checks exactly, in the
// same precedence order: empty mix, untrained MPL, unknown template,
// missing QS model, missing continuum.
func (p *Predictor) cellFor(rp *resolvedPrimary, nconc int) (*servCell, error) {
	primary := rp.id
	if nconc == 0 {
		return nil, fmt.Errorf("core: %w: predicting template %d at MPL 1 (use the isolated latency)", ErrEmptyMix, primary)
	}
	s := p.serv
	mpl := nconc + 1
	col := s.mplIdx(mpl)
	if col < 0 {
		return nil, fmt.Errorf("core: %w: no reference models at MPL %d", ErrUntrainedMPL, mpl)
	}
	if rp.slot < 0 {
		return nil, fmt.Errorf("core: %w: template %d", ErrUnknownTemplate, primary)
	}
	cell := &s.cells[rp.slot*s.nm+col]
	if cell.flags&cellHasQS == 0 {
		return nil, fmt.Errorf("core: %w: no QS model for template %d at MPL %d", ErrUntrainedMPL, primary, mpl)
	}
	if cell.flags&cellHasCont == 0 {
		return nil, fmt.Errorf("core: %w: no continuum for template %d at MPL %d", ErrUntrainedMPL, primary, mpl)
	}
	return cell, nil
}

// latency evaluates the full QS → continuum pipeline at CQI r:
// l_min + (µ·r + b)·(l_max − l_min), associated exactly like
// Continuum.Latency(QSModel.Point(r)).
func (c *servCell) latency(r float64) float64 {
	return c.cmin + (c.mu*r+c.b)*(c.cmax-c.cmin)
}
