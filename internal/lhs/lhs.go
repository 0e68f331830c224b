// Package lhs implements the query-mix sampling machinery of Section 2 of
// the paper: enumeration of concurrent mixes (n-choose-k with replacement)
// and Latin Hypercube Sampling (LHS) of mixes at multiprogramming levels
// above 2, where exhaustive evaluation is prohibitively expensive.
//
// A "mix" is an unordered multiset of template indices of size MPL. LHS
// builds a k-dimensional hypercube whose axes are the n templates and picks
// n samples such that every template value on every axis is intersected
// exactly once (Figure 1 of the paper shows the 2-D case). One LHS run over
// n templates therefore yields n mixes, and every template appears in at
// most MPL mixes of that run.
package lhs

import (
	"math/rand"
	"sort"
)

// Mix is an unordered multiset of template indices executing concurrently.
// It is kept sorted ascending so equal mixes compare equal.
type Mix []int

// Key returns a canonical comparable representation of the mix, usable as a
// map key for deduplication.
func (m Mix) Key() string {
	b := make([]byte, 0, len(m)*3)
	for _, t := range m {
		b = append(b, byte('A'+t/26), byte('A'+t%26), ',')
	}
	return string(b)
}

// normalize sorts the mix in place and returns it.
func normalize(m Mix) Mix {
	sort.Ints(m)
	return m
}

// Contains reports whether the mix includes template t.
func (m Mix) Contains(t int) bool {
	for _, v := range m {
		if v == t {
			return true
		}
	}
	return false
}

// WithoutOne returns a copy of the mix with a single occurrence of t
// removed. It panics if t is not present. This is how a "primary at MPL k"
// observation extracts its k-1 concurrent queries.
func (m Mix) WithoutOne(t int) Mix {
	out := m.AppendWithoutOne(make(Mix, 0, len(m)-1), t)
	if len(out) == len(m) {
		panic("lhs: template not in mix")
	}
	return out
}

// AppendWithoutOne appends the mix with its first occurrence of t removed
// to dst and returns the extended slice: WithoutOne into storage the
// caller owns. Without an occurrence of t it appends the whole mix.
func (m Mix) AppendWithoutOne(dst []int, t int) []int {
	removed := false
	for _, v := range m {
		if v == t && !removed {
			removed = true
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// NumMixes returns the number of distinct mixes of k queries drawn with
// replacement from n templates: C(n+k-1, k). It returns the value as int64
// and saturates on overflow (not a concern at the paper's scales: 25
// templates at MPL 5 gives 118,755).
func NumMixes(n, k int) int64 {
	// C(n+k-1, k) computed multiplicatively.
	var res int64 = 1
	for i := int64(1); i <= int64(k); i++ {
		res = res * (int64(n) + i - 1) / i
	}
	return res
}

// AllPairs enumerates every distinct MPL-2 mix over n templates, including
// self-pairs (a template running with another instance of itself), matching
// the paper's exhaustive pairwise evaluation.
func AllPairs(n int) []Mix {
	out := make([]Mix, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out = append(out, Mix{i, j})
		}
	}
	return out
}

// Sample performs one Latin Hypercube Sampling run: it returns n mixes of
// size mpl over n templates such that along each of the mpl dimensions every
// template index appears exactly once. The rng drives the permutation of
// each axis; a fixed seed gives a deterministic design.
func Sample(n, mpl int, rng *rand.Rand) []Mix {
	if n <= 0 || mpl <= 0 {
		return nil
	}
	// One independent permutation of 0..n-1 per dimension; sample i is the
	// i-th entry of every permutation. This is the classic LHS construction:
	// each value on each axis is intersected exactly once.
	perms := make([][]int, mpl)
	for d := 0; d < mpl; d++ {
		p := rng.Perm(n)
		perms[d] = p
	}
	mixes := make([]Mix, n)
	for i := 0; i < n; i++ {
		m := make(Mix, mpl)
		for d := 0; d < mpl; d++ {
			m[d] = perms[d][i]
		}
		mixes[i] = normalize(m)
	}
	return mixes
}

// SampleDisjoint runs `runs` LHS designs and concatenates them, dropping
// duplicate mixes across runs. The paper evaluates four disjoint LHS samples
// for MPLs 3–5 over its 25 templates.
func SampleDisjoint(n, mpl, runs int, seed int64) []Mix {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out []Mix
	for r := 0; r < runs; r++ {
		for _, m := range Sample(n, mpl, rng) {
			k := m.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}

// MixesFor returns the sampling design the paper uses at a given MPL:
// exhaustive pairs at MPL 2, `runs` disjoint LHS designs at MPL ≥ 3.
// MPL 1 returns one singleton mix per template (isolated execution).
func MixesFor(n, mpl, runs int, seed int64) []Mix {
	switch {
	case mpl <= 1:
		out := make([]Mix, n)
		for i := range out {
			out[i] = Mix{i}
		}
		return out
	case mpl == 2:
		return AllPairs(n)
	default:
		return SampleDisjoint(n, mpl, runs, seed)
	}
}
