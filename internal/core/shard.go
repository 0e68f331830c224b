package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"contender/internal/obs"
)

// Sharded serving: one immutable predictor snapshot shared by every core,
// per-shard scratch so cores never contend, and feedback ingestion that
// stays off the quality aggregator's locks.
//
//   - The snapshot is published through an atomic.Pointer. Swap installs a
//     freshly trained (and pre-primed) predictor without ever blocking a
//     serving goroutine; readers at worst finish their current call on the
//     old snapshot.
//   - Each Shard owns a PredictBuffer (batch scratch) and a fixed-size
//     SPSC feedback ring. Observe keeps the ring single-producer with a
//     per-shard mutex held only for the push, so any number of
//     goroutines may share a shard's ring; the drain side is serialized
//     by the parent's drain mutex.
//   - Shards are per-P, not per-goroutine: serving systems run a bounded
//     worker pool sized to GOMAXPROCS, and rings sized to the pool are
//     bounded (a goroutine-keyed table would grow with churn and need
//     eviction). Acquire round-robins, so the push lock is uncontended
//     until workers outnumber shards.
//
// Feedback samples are buffered as (template, MPL, signed error) triples
// and folded into the obs.Quality aggregator only when DrainFeedback runs
// — the serving goroutine never touches the aggregator's tracker mutexes.
// When a ring fills before the next drain, new samples are dropped and
// counted (FeedbackDropped): quality telemetry is lossy-by-design under
// overload, predictions never are.

// defaultRingSize is the per-shard feedback ring capacity when
// ShardOptions.RingSize is zero.
const defaultRingSize = 1024

// ShardOptions configures NewSharded. The zero value selects the
// documented defaults.
type ShardOptions struct {
	// Shards is the number of serving shards (default GOMAXPROCS at
	// construction time).
	Shards int
	// RingSize is the per-shard feedback ring capacity, rounded up to a
	// power of two (default 1024).
	RingSize int
}

// feedbackSample is one buffered Observe result.
type feedbackSample struct {
	template int32
	mpl      int32
	signed   float64
}

// feedbackRing is a fixed-size single-producer single-consumer ring.
// Shard.Observe pushes under the shard's push mutex; DrainFeedback
// (serialized by the Sharded drain mutex) pops. Cache-line padding keeps
// the producer- and consumer-owned counters off each other's lines.
type feedbackRing struct {
	buf     []feedbackSample
	mask    uint64
	_       [32]byte
	tail    atomic.Uint64 // producer-owned: next write position
	_       [56]byte
	head    atomic.Uint64 // consumer-owned: next read position
	_       [56]byte
	dropped atomic.Uint64
}

// push appends a sample, dropping it (and counting the drop) when the
// ring is full.
//
//contender:hotpath
func (r *feedbackRing) push(s feedbackSample) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		r.dropped.Add(1)
		return false
	}
	r.buf[t&r.mask] = s
	r.tail.Store(t + 1)
	return true
}

// pop moves the oldest sample into out, reporting whether one existed.
//
//contender:hotpath
func (r *feedbackRing) pop(out *feedbackSample) bool {
	h := r.head.Load()
	if h == r.tail.Load() {
		return false
	}
	*out = r.buf[h&r.mask]
	r.head.Store(h + 1)
	return true
}

// Shard is one serving replica's handle: private batch scratch plus a
// private feedback ring, all backed by the shared snapshot. Predict and
// Observe are safe for concurrent use. BatchPredict and Explain reuse the
// shard's scratch and must be called by one goroutine at a time (like a
// PredictBuffer). Different shards are fully independent.
type Shard struct {
	parent *Sharded
	id     int
	buf    PredictBuffer
	ebuf   ExplainBuffer
	pushMu sync.Mutex // serializes ring producers; held only for the push
	ring   feedbackRing

	// drainedDropped is the ring drop count already folded into the
	// quality aggregator. Consumer-owned: only DrainFeedback (serialized
	// by the parent's drainMu) touches it.
	drainedDropped uint64
}

// ID returns the shard's index within its Sharded set.
func (h *Shard) ID() int { return h.id }

// Predict serves PredictKnown from the current snapshot.
//
//contender:hotpath
func (h *Shard) Predict(primary int, concurrent []int) (float64, error) {
	return h.parent.snap.Load().PredictKnown(primary, concurrent)
}

// Explain serves PredictExplain from the current snapshot using the
// shard's own explain buffer. The returned buffer is valid until the
// shard's next Explain — exactly the lifetime rule of BatchPredict's
// result slice.
//
//contender:hotpath
func (h *Shard) Explain(primary int, concurrent []int) (*ExplainBuffer, error) {
	if _, err := h.parent.snap.Load().PredictExplain(&h.ebuf, primary, concurrent); err != nil {
		return nil, err
	}
	return &h.ebuf, nil
}

// BatchPredict serves PredictBatch from the current snapshot using the
// shard's own buffer. The returned slice is valid until the shard's next
// batch.
//
//contender:hotpath
func (h *Shard) BatchPredict(primary int, mixes [][]int) ([]float64, error) {
	return h.parent.snap.Load().PredictBatch(&h.buf, primary, mixes)
}

// Observe is the aggregator-free Feedback: it prices the mix on the
// current snapshot, computes the signed relative error, and buffers the
// sample in the shard's ring for the next DrainFeedback. Unlike
// Predictor.Feedback it never touches the quality aggregator, so the
// returned FeedbackResult carries no drift state — drift is resolved at
// drain time. An observation whose relative error is not finite is
// refused before the push, as Feedback refuses it. When the ring is
// full the sample is dropped and counted. Only the push itself runs
// under the shard's lock.
//
//contender:hotpath
func (h *Shard) Observe(primary int, concurrent []int, observed float64) (FeedbackResult, error) {
	if observed <= 0 || math.IsNaN(observed) || math.IsInf(observed, 0) {
		return FeedbackResult{}, fmt.Errorf("core: %w: observed latency %g", ErrBadObservation, observed)
	}
	p := h.parent.snap.Load()
	predicted, err := p.predictKnown(primary, concurrent)
	if err != nil {
		return FeedbackResult{}, err
	}
	signed, err := signedError(observed, predicted)
	if err != nil {
		return FeedbackResult{}, err
	}
	h.pushMu.Lock()
	h.ring.push(feedbackSample{template: int32(primary), mpl: int32(len(concurrent) + 1), signed: signed})
	h.pushMu.Unlock()
	return FeedbackResult{Predicted: predicted, Observed: observed, SignedError: signed}, nil
}

// Sharded fans one predictor snapshot out to per-core serving shards.
// Construction, Swap, and DrainFeedback are control-plane operations;
// everything reachable from a Shard is the data plane.
type Sharded struct {
	snap   atomic.Pointer[Predictor]
	shards []*Shard
	next   atomic.Uint64

	drainMu  sync.Mutex
	drainRun []float64 // scratch for batched ObserveRun folding
}

// NewSharded wraps a trained predictor for sharded serving. The predictor
// is primed so no shard pays the index construction cost.
func NewSharded(p *Predictor, opts ShardOptions) (*Sharded, error) {
	if p == nil {
		return nil, fmt.Errorf("core: NewSharded needs a trained predictor")
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ring := opts.RingSize
	if ring <= 0 {
		ring = defaultRingSize
	}
	ring = ceilPow2(ring)
	p.Prime()
	s := &Sharded{}
	s.snap.Store(p)
	s.shards = make([]*Shard, n)
	for i := range s.shards {
		sh := &Shard{parent: s, id: i}
		sh.ring.buf = make([]feedbackSample, ring)
		sh.ring.mask = uint64(ring - 1)
		s.shards[i] = sh
	}
	return s, nil
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the number of serving shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Snapshot returns the current predictor snapshot. The snapshot is
// immutable from the serving side; use it for read-only queries (MPLs,
// knowledge inspection) that need a consistent view.
func (s *Sharded) Snapshot() *Predictor { return s.snap.Load() }

// Acquire hands out a shard round-robin. A serving worker acquires one
// shard at startup and keeps it for its lifetime. Workers sharing a shard
// may Predict and Observe freely but must serialize BatchPredict and
// Explain, exactly like sharing a PredictBuffer.
func (s *Sharded) Acquire() *Shard {
	n := s.next.Add(1) - 1
	return s.shards[n%uint64(len(s.shards))]
}

// Swap atomically installs a new (freshly trained or snapshot-loaded)
// predictor and returns the previous one. The new predictor is primed
// before publication, so no serving call ever pays its index build.
// In-flight calls complete on the old snapshot; the caller owns its
// retirement (it is safe to keep using).
func (s *Sharded) Swap(p *Predictor) (*Predictor, error) {
	if p == nil {
		return nil, fmt.Errorf("core: Swap needs a non-nil predictor")
	}
	p.Prime()
	return s.snap.Swap(p), nil
}

// DrainFeedback pops every buffered feedback sample and folds it into the
// current snapshot's quality aggregator, emitting the same quality.*
// points Predictor.Feedback would (drift transitions first, then the
// feedback sample) when an observer is installed. Without an observer,
// consecutive same-template samples fold under one tracker lock
// (obs.Quality.ObserveRun). It returns the number of samples drained.
// Drains serialize on an internal mutex; call it from the quality
// aggregator's maintenance loop, not from serving workers.
//
//contender:allow snapshotsafe -- the quality aggregator is a shared mutable sink by contract: it synchronizes internally, deliberately survives snapshot swaps, and is never part of the immutable prediction state
func (s *Sharded) DrainFeedback() int {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	p := s.snap.Load()
	q, o := p.Quality(), p.Observer()
	total := 0
	var smp feedbackSample
	for _, sh := range s.shards {
		switch {
		case q != nil && o != nil:
			for sh.ring.pop(&smp) {
				total++
				d := q.Observe(int(smp.template), smp.signed)
				if d.Transitioned {
					obs.Emit(o, obs.Event{
						Kind:     obs.Point,
						Span:     obs.PointQualityDrift,
						Key:      obs.TransitionLabel(d.Previous, d.State),
						Template: int(smp.template),
						MPL:      int(smp.mpl),
						Value:    d.WindowMRE,
					})
				}
				obs.Emit(o, obs.Event{
					Kind:     obs.Point,
					Span:     obs.PointQualityFeedback,
					Template: int(smp.template),
					MPL:      int(smp.mpl),
					Value:    smp.signed,
				})
			}
		case q != nil:
			run := s.drainRun[:0]
			runTmpl := int32(0)
			for sh.ring.pop(&smp) {
				total++
				if len(run) > 0 && smp.template != runTmpl {
					q.ObserveRun(int(runTmpl), run)
					run = run[:0]
				}
				runTmpl = smp.template
				run = append(run, smp.signed)
			}
			if len(run) > 0 {
				q.ObserveRun(int(runTmpl), run)
			}
			s.drainRun = run[:0]
		case o != nil:
			for sh.ring.pop(&smp) {
				total++
				obs.Emit(o, obs.Event{
					Kind:     obs.Point,
					Span:     obs.PointQualityFeedback,
					Template: int(smp.template),
					MPL:      int(smp.mpl),
					Value:    smp.signed,
				})
			}
		default:
			for sh.ring.pop(&smp) {
				total++
			}
		}
		// Fold the ring-overflow drops accumulated since the last drain
		// into the aggregator, so lossy telemetry is visible (the
		// quality.dropped family and the /quality payload).
		if q != nil {
			if d := sh.ring.dropped.Load(); d > sh.drainedDropped {
				q.AddDropped(int64(d - sh.drainedDropped))
				sh.drainedDropped = d
			}
		}
	}
	return total
}

// FeedbackDropped returns the total number of feedback samples dropped
// across all shards because a ring was full at Observe time.
func (s *Sharded) FeedbackDropped() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.ring.dropped.Load()
	}
	return n
}
