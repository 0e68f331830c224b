package core

import (
	"fmt"
	"sync/atomic"
)

// Sharded serving: one immutable predictor snapshot published through an
// atomic.Pointer. Swap installs a freshly built predictor (Train and
// PredictorFromSnapshot return it with every index built) without ever
// blocking a serving goroutine; readers at worst finish their current
// call on the old snapshot. Callers price on Snapshot() with scratch of
// their own (a PredictBuffer, an ExplainBuffer), and feedback folds
// inline through the snapshot's Predictor.Feedback, so every sample
// reaches the quality aggregator.

// Sharded holds the serving snapshot. Construction and Swap are
// control-plane operations; Snapshot is the data plane.
type Sharded struct {
	snap atomic.Pointer[Predictor]

	// observed counts the samples Shard.Observe folded since the last
	// DrainFeedback.
	observed atomic.Int64
}

// NewSharded wraps a trained predictor for serving.
func NewSharded(p *Predictor) (*Sharded, error) {
	if p == nil {
		return nil, fmt.Errorf("core: NewSharded needs a trained predictor")
	}
	s := &Sharded{}
	s.snap.Store(p)
	return s, nil
}

// Snapshot returns the current predictor snapshot. The snapshot is
// immutable from the serving side; price on it with caller-owned
// scratch, and fold feedback with its Feedback method.
func (s *Sharded) Snapshot() *Predictor { return s.snap.Load() }

// Swap atomically installs a new (freshly trained or snapshot-loaded)
// predictor and returns the previous one. In-flight calls complete on
// the old snapshot; the caller owns its retirement (it is safe to keep
// using).
func (s *Sharded) Swap(p *Predictor) (*Predictor, error) {
	if p == nil {
		return nil, fmt.Errorf("core: Swap needs a non-nil predictor")
	}
	return s.snap.Swap(p), nil
}

// Shard, Acquire and DrainFeedback are kept only for the serving
// benchmark's ladder (bench/ladder.go), which times them as rungs; the
// server and every other caller use Snapshot directly. Delete them with
// the ladder rungs that call them.

// Shard is a handle on the current snapshot that owns its own batch and
// explain scratch. Predict and Observe are safe for concurrent use;
// BatchPredict and Explain reuse the handle's scratch and must be called
// by one goroutine at a time (like a PredictBuffer).
type Shard struct {
	parent *Sharded
	buf    PredictBuffer
	ebuf   ExplainBuffer
}

// Acquire returns a fresh handle with its own scratch.
func (s *Sharded) Acquire() *Shard { return &Shard{parent: s} }

// Predict serves PredictKnown from the current snapshot.
func (h *Shard) Predict(primary int, concurrent []int) (float64, error) {
	return h.parent.snap.Load().PredictKnown(primary, concurrent)
}

// Explain serves PredictExplain from the current snapshot using the
// handle's own explain buffer. The returned buffer is valid until the
// handle's next Explain — exactly the lifetime rule of BatchPredict's
// result slice.
func (h *Shard) Explain(primary int, concurrent []int) (*ExplainBuffer, error) {
	if _, err := h.parent.snap.Load().PredictExplain(&h.ebuf, primary, concurrent); err != nil {
		return nil, err
	}
	return &h.ebuf, nil
}

// BatchPredict serves PredictBatch from the current snapshot using the
// handle's own buffer. The returned slice is valid until the handle's
// next batch.
func (h *Shard) BatchPredict(primary int, mixes [][]int) ([]float64, error) {
	return h.parent.snap.Load().PredictBatch(&h.buf, primary, mixes)
}

// Observe is Feedback on the current snapshot, counted for the next
// DrainFeedback.
func (h *Shard) Observe(primary int, concurrent []int, observed float64) (FeedbackResult, error) {
	res, err := h.parent.snap.Load().Feedback(primary, concurrent, observed)
	if err == nil {
		h.parent.observed.Add(1)
	}
	return res, err
}

// DrainFeedback folds nothing: Observe already folded each sample. It
// returns how many samples Observe folded since the previous call.
func (s *Sharded) DrainFeedback() int { return int(s.observed.Swap(0)) }
