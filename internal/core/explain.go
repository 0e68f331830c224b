package core

import (
	"fmt"

	"contender/internal/obs"
)

// Blame attribution (ROADMAP: "per-mix contention blame attribution
// reports"). The CQI of Eq. 5 is literally a mean of per-concurrent
// intensity terms — cqiSlot sums one intensitySlot value per neighbor —
// so a prediction decomposes exactly: each neighbor owns one additive
// share of the interaction that separates the served latency from the
// zero-contention baseline. PredictExplain exposes that decomposition
// without changing a single float operation: it prices the mix through
// the same body as PredictKnown and hands cqiSlot a term sink, so each
// neighbor's intensity is recorded by the very loop that sums it. The
// reconstructed CQI — and therefore the served latency — is
// bit-identical to PredictKnown by structure, not by tolerance.

// ExplainBuffer receives one PredictExplain decomposition. Like
// PredictBuffer it is caller-owned scratch: after the first call of a
// given mix size the slices are reused and the explain path allocates
// nothing. All fields are valid until the next PredictExplain into the
// same buffer. A buffer must be used by one goroutine at a time.
type ExplainBuffer struct {
	// Primary and MPL echo the request: the primary template ID and the
	// multiprogramming level (len(concurrent)+1).
	Primary int
	MPL     int

	// CQI is the mix's competing intensity r (Eq. 5). Summing Intensity
	// in slice order and dividing by len(Neighbors) reproduces it
	// bit-identically — the terms are recorded in cqiSlot's own
	// summation order.
	CQI float64
	// Baseline is the latency the QS → continuum pipeline serves at
	// r = 0: the primary's predicted latency with zero competing
	// intensity under the same cell (l_min + b·(l_max − l_min)).
	Baseline float64
	// Total is the served prediction, bit-identical to what
	// PredictKnown returns for the same (primary, concurrent).
	Total float64
	// Scale converts one unit of a neighbor's intensity into predicted
	// seconds of the primary's latency: µ·(l_max − l_min)/m, where m is
	// the number of concurrent queries. It is the exact per-term
	// linearization of the interaction Total − Baseline.
	Scale float64

	// Neighbors copies the request's concurrent template IDs in request
	// order; Intensity[i] is Neighbors[i]'s r_c term (Eq. 4) and
	// Seconds[i] = Intensity[i]·Scale is its blame share in predicted
	// seconds. The three slices always have equal length.
	Neighbors []int
	Intensity []float64
	Seconds   []float64
}

// Interaction returns the decomposed interaction cost in seconds:
// Total − Baseline, the part of the prediction the neighbors own.
func (b *ExplainBuffer) Interaction() float64 { return b.Total - b.Baseline }

// reset clears the result fields so a failed call can never be misread
// as the previous call's decomposition. Slice capacity is retained.
func (b *ExplainBuffer) reset() {
	b.Primary, b.MPL = 0, 0
	b.CQI, b.Baseline, b.Total, b.Scale = 0, 0, 0, 0
	b.Neighbors = b.Neighbors[:0]
	b.Intensity = b.Intensity[:0]
	b.Seconds = b.Seconds[:0]
}

// prepare sizes the decomposition slices for an m-neighbor mix. It may
// allocate on growth; the steady state (warm capacity) does not — the
// hot path below only writes by index.
func (b *ExplainBuffer) prepare(m int) {
	b.Neighbors = growSlice(b.Neighbors, m)
	b.Intensity = growSlice(b.Intensity, m)
	b.Seconds = growSlice(b.Seconds, m)
}

// PredictExplain is PredictKnown plus the per-neighbor decomposition of
// the interaction cost, written into buf. The returned latency — and
// buf.Total — is bit-identical to PredictKnown for the same arguments:
// the decomposition records the terms of the same summation rather than
// recomputing anything. The error cases and messages are exactly
// PredictKnown's; on error buf holds zero values and empty slices.
//
//contender:hotpath
func (p *Predictor) PredictExplain(buf *ExplainBuffer, primary int, concurrent []int) (float64, error) {
	if buf == nil {
		return 0, fmt.Errorf("core: PredictExplain needs a non-nil buffer")
	}
	if p.observer == nil {
		return p.predictExplain(buf, primary, concurrent)
	}
	start := obs.Mono() //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
	v, err := p.predictExplain(buf, primary, concurrent)
	obs.Emit(p.observer, obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictExplain,
		Template: primary,
		MPL:      len(concurrent) + 1,
		Value:    v,
		Dur:      obs.Mono() - start, //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
		Err:      obs.ErrLabel(err),
	})
	return v, err
}

//contender:hotpath
func (p *Predictor) predictExplain(buf *ExplainBuffer, primary int, concurrent []int) (float64, error) {
	buf.prepare(len(concurrent))
	cell, r, err := p.price(primary, concurrent, buf.Intensity)
	if err != nil {
		buf.reset()
		return 0, err
	}
	copy(buf.Neighbors, concurrent)
	m := float64(len(concurrent))
	buf.Primary = primary
	buf.MPL = len(concurrent) + 1
	buf.CQI = r
	buf.Baseline = cell.latency(0)
	buf.Total = cell.latency(r)
	buf.Scale = cell.mu * (cell.cmax - cell.cmin) / m
	for i, in := range buf.Intensity {
		buf.Seconds[i] = in * buf.Scale
	}
	return buf.Total, nil
}
