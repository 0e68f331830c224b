package contender

import "contender/internal/core"

// Serving snapshot facade: wrap a trained Predictor in one immutable
// snapshot that every serving goroutine reads lock-free. Callers price
// on Snapshot() with scratch of their own and fold feedback with the
// snapshot's Feedback, which reaches the quality aggregator inline.
// Retraining swaps in a new predictor atomically (Swap) without
// blocking a single serving call.

// Shard is a handle on the current snapshot with its own batch and
// explain scratch. It is kept only for the serving benchmark's ladder;
// serve through Snapshot instead.
type Shard = core.Shard

// Sharded holds the predictor snapshot in service.
type Sharded struct {
	inner *core.Sharded
}

// NewSharded wraps a trained predictor for serving. A trained or loaded
// predictor already has every index built, so no serving call pays a
// construction cost.
func NewSharded(p *Predictor) (*Sharded, error) {
	s, err := core.NewSharded(p.inner)
	if err != nil {
		return nil, err
	}
	return &Sharded{inner: s}, nil
}

// Acquire returns a fresh Shard handle. It is kept only for the serving
// benchmark's ladder.
func (s *Sharded) Acquire() *Shard { return s.inner.Acquire() }

// Snapshot returns a handle on the predictor currently serving; it may be
// retired by a concurrent Swap at any time. SetObserver and SetQuality
// on the handle rebind only the handle, never the served predictor.
func (s *Sharded) Snapshot() *Predictor {
	return &Predictor{inner: s.inner.Snapshot()}
}

// Swap atomically installs a freshly trained (or snapshot-loaded)
// predictor and returns the previous one. In-flight predictions finish on
// the old snapshot; new calls see the new one.
func (s *Sharded) Swap(p *Predictor) (*Predictor, error) {
	old, err := s.inner.Swap(p.inner)
	if err != nil {
		return nil, err
	}
	return &Predictor{inner: old}, nil
}

// DrainFeedback folds nothing: Shard.Observe folds each sample inline.
// It returns how many samples Shard.Observe folded since the previous
// call, and is kept only for the serving benchmark's ladder.
func (s *Sharded) DrainFeedback() int { return s.inner.DrainFeedback() }
