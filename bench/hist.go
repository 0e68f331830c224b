package main

import (
	"math"
	"time"
)

// hist is a log-bucketed latency histogram. Bucket i holds samples in
// [γ^i, γ^(i+1)) nanoseconds with γ = 1.01, so a quantile read back
// (interpolated inside the bucket that holds its rank) is within 1% of
// the exact sample. Histograms of different connections merge by adding
// counts. The interpolation also keeps a quantile from reading exactly
// the same bucket edge on every run.
type hist struct {
	counts []uint64
	n      uint64
	sum    float64 // nanoseconds, for the mean
}

const histGamma = 1.01

// histBuckets covers 1 ns to γ^2600 ns ≈ 175 s.
const histBuckets = 2600

var histLogGamma = math.Log(histGamma)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func (h *hist) record(d time.Duration) {
	v := float64(d)
	h.n++
	h.sum += v
	if v < 1 {
		v = 1
	}
	b := int(math.Log(v) / histLogGamma)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b]++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds by nearest rank
// (rank ⌈q·n⌉), interpolated linearly inside its bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(1, min(rank, h.n))
	var cum uint64
	for b, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo := math.Pow(histGamma, float64(b))
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return lo + (lo*histGamma-lo)*frac
	}
	return math.Pow(histGamma, histBuckets)
}

// mean returns the exact mean in nanoseconds; 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}
