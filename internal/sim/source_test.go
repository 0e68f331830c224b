package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds the engine's source to rand.NewSource
// draw for draw, past the 607-word wrap, on the seeds where math/rand's
// seed reduction has edges (0, the modulus and its multiples, the int64
// extremes, the seed that stands in for 0) and on 1,000 drawn seeds. One
// source is reseeded for every seed, so Seed on a used source is covered
// too.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	seeds := []int64{0, 1, -1, zeroSeed, -zeroSeed,
		pmMod, -pmMod, 2 * pmMod, -2 * pmMod, pmMod * pmMod, -pmMod * pmMod,
		pmMod - 1, pmMod + 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	gen := rand.New(rand.NewSource(20140324))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}

	var got source
	r := rand.New(&got)
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for d := 0; d < draws; d++ {
			if d%2 == 0 {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, d, g, w)
				}
			} else if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 = %#x, want %#x", seed, d, g, w)
			}
		}

		ref := rand.New(rand.NewSource(seed))
		r.Seed(seed)
		for d := 0; d < draws/3; d++ {
			if w, g := ref.Float64(), r.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d call %d: Float64 = %v, want %v", seed, d, g, w)
			}
			if w, g := ref.NormFloat64(), r.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d call %d: NormFloat64 = %v, want %v", seed, d, g, w)
			}
			if w, g := ref.Intn(1+d), r.Intn(1+d); w != g {
				t.Fatalf("seed %d call %d: Intn(%d) = %d, want %d", seed, d, 1+d, g, w)
			}
		}
	}
}

// BenchmarkSourceSeed prices seeding one generator: rand.NewSource's
// dependent chain against the power-table seed of the engine's source.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rand.NewSource(int64(i))
		}
	})
	b.Run("source", func(b *testing.B) {
		var s source
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
