package core

import (
	"fmt"

	"contender/internal/obs"
)

// Batch prediction: schedulers and admission controllers evaluate many
// candidate mixes per decision (which queued query to dispatch next, which
// MPL keeps the SLO). PredictBatch resolves the primary once and prices
// every mix through the same per-mix body as PredictKnown (priceMix), so
// results are bit-identical by construction, into a reusable result slice
// so the decision loop stays allocation-free.

// PredictBuffer holds the result slice of PredictBatch. The zero value is
// ready to use; a buffer must not be shared between goroutines.
type PredictBuffer struct {
	out []float64
}

// Results returns the predictions of the most recent successful
// PredictBatch call. The slice is overwritten by the next call on the same
// buffer; after a failed call it is empty.
func (b *PredictBuffer) Results() []float64 { return b.out }

// PredictBatch is PredictKnown evaluated for each candidate mix of the
// same primary, writing into buf's storage. The returned slice aliases
// the buffer and is valid until the next call. Mixes may have different
// MPLs; each must have a trained reference model and continuum. The call
// is all-or-nothing: the first failing mix (in input order) is named in
// the error and no partial results remain in the buffer.
// A batch emits a single serve.predict_batch span (Value = number of
// mixes) rather than one serve.predict_known span per mix, so observer
// overhead stays O(1) per scheduling decision.
func (p *Predictor) PredictBatch(buf *PredictBuffer, primary int, mixes [][]int) ([]float64, error) {
	if !p.observer.On() {
		return p.predictBatch(buf, primary, mixes)
	}
	start := obs.Mono()
	out, err := p.predictBatch(buf, primary, mixes)
	p.observer.Event(obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictBatch,
		Template: primary,
		Value:    float64(len(mixes)),
		Dur:      obs.Mono() - start,
		Err:      obs.ErrLabel(err),
	})
	return out, err
}

func (p *Predictor) predictBatch(buf *PredictBuffer, primary int, mixes [][]int) ([]float64, error) {
	if buf == nil {
		return nil, fmt.Errorf("core: PredictBatch needs a non-nil buffer")
	}
	buf.out = growSlice(buf.out, len(mixes))
	rp := p.resolve(primary)
	for i, mix := range mixes {
		cell, r, err := p.priceMix(&rp, mix, nil)
		if err != nil {
			buf.out = buf.out[:0]
			return nil, fmt.Errorf("core: batch mix %d: %w", i, err)
		}
		buf.out[i] = cell.latency(r)
	}
	return buf.out, nil
}

// growSlice returns s resized to n, reallocating only when its capacity
// is short — the steady state (warm capacity) does not allocate.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
