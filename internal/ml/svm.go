package ml

import (
	"math"
	"math/rand"
	"sort"

	"contender/internal/linalg"
)

// SVM predicts query latency the way Section 3 describes: latencies are
// discretized into coarse labels, a soft-margin kernel SVM classifies
// feature vectors into those labels (one-vs-rest over binary SMO-trained
// machines), and the label's representative latency is returned as the
// estimate.
type SVM struct {
	// Bins is the number of latency classes (quantile bins).
	Bins int
	// C is the soft-margin penalty.
	C float64
	// Seed drives SMO's working-pair randomization.
	Seed int64

	std      *Standardizer
	kernel   RBFKernel
	train    [][]float64
	machines []*binarySVM
	centers  []float64 // representative latency per bin
}

// NewSVM returns an SVM with defaults suited to the workload sizes here.
func NewSVM() *SVM {
	return &SVM{Bins: 8, C: 10, Seed: 1}
}

// Fit trains one-vs-rest binary machines over quantile latency bins.
func (m *SVM) Fit(features [][]float64, latencies []float64) error {
	n := len(features)
	if n == 0 || n != len(latencies) {
		return ErrNoData
	}
	if m.Bins < 2 {
		m.Bins = 2
	}
	if m.Bins > n {
		m.Bins = n
	}
	if m.C <= 0 {
		m.C = 10
	}

	m.std = FitStandardizer(features)
	m.train = m.std.ApplyAll(features)
	m.kernel = RBFKernel{Sigma: MedianSigma(m.train)}

	labels, centers := quantileBins(latencies, m.Bins)
	m.centers = centers

	gram := m.kernel.GramMatrix(m.train)
	m.machines = make([]*binarySVM, len(centers))
	for b := range centers {
		y := make([]float64, n)
		for i, l := range labels {
			if l == b {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		bs := &binarySVM{c: m.C, rng: rand.New(rand.NewSource(m.Seed + int64(b)))}
		bs.train(gram, y)
		m.machines[b] = bs
	}
	return nil
}

// Predict classifies the feature vector and returns its bin's
// representative latency.
func (m *SVM) Predict(features []float64) float64 {
	if len(m.train) == 0 {
		return 0
	}
	x := m.std.Apply(features)
	kcol := make([]float64, len(m.train))
	for i, t := range m.train {
		kcol[i] = m.kernel.Eval(x, t)
	}
	best, bestScore := 0, math.Inf(-1)
	for b, bs := range m.machines {
		if s := bs.decision(kcol); s > bestScore {
			best, bestScore = b, s
		}
	}
	return m.centers[best]
}

// quantileBins assigns each latency to one of `bins` quantile buckets and
// returns the per-bucket mean latency as its representative. Empty buckets
// (possible with duplicated values) fall back to the bucket boundary.
func quantileBins(latencies []float64, bins int) (labels []int, centers []float64) {
	n := len(latencies)
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	cuts := make([]float64, bins-1)
	for b := 1; b < bins; b++ {
		cuts[b-1] = sorted[b*n/bins]
	}
	labels = make([]int, n)
	for i, l := range latencies {
		b := 0
		for b < bins-1 && l >= cuts[b] {
			b++
		}
		labels[i] = b
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for i, b := range labels {
		sums[b] += latencies[i]
		counts[b]++
	}
	centers = make([]float64, bins)
	for b := range centers {
		if counts[b] > 0 {
			centers[b] = sums[b] / float64(counts[b])
		} else if b > 0 {
			centers[b] = cuts[b-1]
		}
	}
	return labels, centers
}

// binarySVM is a soft-margin kernel SVM trained with simplified SMO
// (Platt's algorithm with random second-choice heuristics), operating
// directly on a precomputed Gram matrix.
type binarySVM struct {
	c     float64
	rng   *rand.Rand
	alpha []float64
	y     []float64
	bias  float64
}

const (
	smoTol      = 1e-3
	smoMaxPass  = 10
	smoMaxIters = 2000
)

func (s *binarySVM) train(gram *linalg.Matrix, y []float64) {
	n := len(y)
	s.y = y
	s.alpha = make([]float64, n)
	s.bias = 0

	// f(i) = Σ_j α_j y_j K(x_j, x_i) + b. It reads row i for column i:
	// GramMatrix writes both halves with the same value.
	f := func(i int) float64 {
		row := gram.RowView(i)
		var sum float64
		for j, a := range s.alpha {
			if a != 0 {
				sum += a * y[j] * row[j]
			}
		}
		return sum + s.bias
	}

	passes, iters := 0, 0
	for passes < smoMaxPass && iters < smoMaxIters {
		iters++
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -smoTol && s.alpha[i] < s.c) || (y[i]*ei > smoTol && s.alpha[i] > 0)) {
				continue
			}
			j := s.rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]

			ai, aj := s.alpha[i], s.alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(s.c, s.c+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-s.c)
				hi = math.Min(s.c, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*gram.At(i, j) - gram.At(i, i) - gram.At(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)

			b1 := s.bias - ei - y[i]*(aiNew-ai)*gram.At(i, i) - y[j]*(ajNew-aj)*gram.At(i, j)
			b2 := s.bias - ej - y[i]*(aiNew-ai)*gram.At(i, j) - y[j]*(ajNew-aj)*gram.At(j, j)
			switch {
			case aiNew > 0 && aiNew < s.c:
				s.bias = b1
			case ajNew > 0 && ajNew < s.c:
				s.bias = b2
			default:
				s.bias = (b1 + b2) / 2
			}
			s.alpha[i], s.alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
}

// decision evaluates the machine on a kernel column against the training
// set (kcol[i] = k(x, x_i)).
func (s *binarySVM) decision(kcol []float64) float64 {
	var sum float64
	for i, a := range s.alpha {
		if a != 0 {
			sum += a * s.y[i] * kcol[i]
		}
	}
	return sum + s.bias
}
