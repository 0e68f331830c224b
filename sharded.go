package contender

import "contender/internal/core"

// Sharded serving facade: wrap a trained Predictor in per-core serving
// shards sharing one immutable snapshot. Serving workers each Acquire a
// Shard — predictions read the snapshot lock-free, batch scratch is
// per-shard, and Observe buffers feedback in a per-shard ring instead of
// touching the quality aggregator; a per-shard lock held only for the
// ring push keeps the ring single-producer when workers share a shard.
// Retraining swaps in a new predictor atomically (Swap) without blocking
// a single serving call; a maintenance loop periodically folds buffered
// feedback into the quality aggregator with DrainFeedback.

// Shard is one serving replica's handle: Predict, BatchPredict, and
// Observe, each allocation-free once warm. Predict and Observe are safe
// for concurrent use; BatchPredict and Explain reuse the shard's scratch
// and must be called by one goroutine at a time.
type Shard = core.Shard

// Sharded fans one predictor snapshot out to per-core serving shards.
type Sharded struct {
	inner *core.Sharded
}

// NewSharded wraps a trained predictor for sharded serving, priming its
// indexes so no serving call pays construction costs. It shares the
// ServeOption vocabulary with NewServer and Workbench.Serve; the
// relevant options here are WithShards and WithFeedbackRing.
func NewSharded(p *Predictor, opts ...ServeOption) (*Sharded, error) {
	cfg := buildServeConfig(opts)
	s, err := core.NewSharded(p.inner, core.ShardOptions{Shards: cfg.shards, RingSize: cfg.ringSize})
	if err != nil {
		return nil, err
	}
	return &Sharded{inner: s}, nil
}

// Acquire hands out a shard round-robin; a serving worker acquires one at
// startup and keeps it for its lifetime. Shards are shared round-robin
// once workers outnumber them.
func (s *Sharded) Acquire() *Shard { return s.inner.Acquire() }

// NumShards returns the number of serving shards.
func (s *Sharded) NumShards() int { return s.inner.NumShards() }

// Snapshot returns the predictor currently serving. Treat it as
// read-only; it may be retired by a concurrent Swap at any time.
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

// DrainFeedback folds every buffered Observe sample into the current
// snapshot's quality aggregator (emitting the same quality.* points
// Feedback would) and returns the number of samples drained.
func (s *Sharded) DrainFeedback() int { return s.inner.DrainFeedback() }

// FeedbackDropped returns how many feedback samples were dropped because
// a shard's ring was full at Observe time.
func (s *Sharded) FeedbackDropped() uint64 { return s.inner.FeedbackDropped() }
