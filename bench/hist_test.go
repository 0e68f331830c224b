package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistQuantilesWithinOnePercent checks p50/p99/p99.9 against an exact
// nearest-rank sort of the same synthetic samples, for a histogram built
// in one piece and for one merged from per-connection parts.
func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 200000)
	for i := range samples {
		// A log-normal body around 30µs with a 2% tail around 2ms: the
		// shape of a loopback round trip with occasional scheduler stalls.
		v := math.Exp(math.Log(30e3) + 0.4*rng.NormFloat64())
		if rng.Float64() < 0.02 {
			v = math.Exp(math.Log(2e6) + 0.8*rng.NormFloat64())
		}
		samples[i] = time.Duration(v)
	}
	whole := newHist()
	parts := []*hist{newHist(), newHist(), newHist()}
	for i, s := range samples {
		whole.record(s)
		parts[i%len(parts)].record(s)
	}
	merged := newHist()
	for _, p := range parts {
		merged.merge(p)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
		for name, h := range map[string]*hist{"whole": whole, "merged": merged} {
			got := h.quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("%s p%g = %.1f ns, exact %.1f ns: relative error %.4f > 1%%", name, q*100, got, exact, rel)
			}
		}
	}
	if whole.n != merged.n || math.Abs(whole.mean()-merged.mean()) > 1e-9*whole.mean() {
		t.Errorf("merged histogram differs: n %d vs %d, mean %g vs %g", merged.n, whole.n, merged.mean(), whole.mean())
	}
}

func TestHistEmptyAndTiny(t *testing.T) {
	h := newHist()
	if h.quantile(0.5) != 0 || h.mean() != 0 {
		t.Fatal("empty histogram must read 0")
	}
	h.record(0)
	if got := h.quantile(0.99); got < 1 || got > histGamma {
		t.Fatalf("a zero sample reads %g, want the first bucket", got)
	}
}
