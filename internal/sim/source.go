package sim

import "math/rand"

// source is the engine's noise source: the additive lagged-Fibonacci
// generator behind math/rand's NewSource (vec[n] = vec[n-607] +
// vec[n-273] mod 2⁶⁴), with a cheaper Seed. rand.NewSource fills its
// 607-word vector by stepping the Park–Miller chain
// x ← 48271·x mod (2³¹−1) 1,841 times, each step waiting on the one
// before; a campaign seeds one engine per task attempt, so that chain
// was about 15% of its CPU. Step k of the chain is x₀·48271ᵏ mod
// (2³¹−1), so Seed reads every step's multiplier from a power table and
// computes the words independently. The stream is rand.NewSource's, bit
// for bit, for every seed (TestSourceMatchesMathRand).
type source struct {
	tap, feed int
	vec       [srcLen]uint64
}

const (
	srcLen = 607 // vector length (the generator's long lag)
	srcTap = 273 // short lag

	pmMod  = 1<<31 - 1 // Park–Miller modulus
	pmMul  = 48271     // Park–Miller multiplier
	pmSkip = 20        // chain steps math/rand discards before the first word

	// zeroSeed is what math/rand seeds with in place of a seed ≡ 0.
	zeroSeed = 89482311
)

var (
	// pmPow[k] is 48271^(pmSkip+1+k) mod (2³¹−1): word i is built from
	// chain steps 3i, 3i+1 and 3i+2 after the discarded prefix.
	pmPow [3 * srcLen]uint64
	// cooked[i] is the constant math/rand XORs into word i of every
	// seeded vector.
	cooked [srcLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k <= pmSkip; k++ {
		p = p * pmMul % pmMod
	}
	for k := range pmPow {
		pmPow[k] = p
		p = p * pmMul % pmMod
	}

	// The cooked constants are not copied from the standard library but
	// recovered from its public stream: seed rand.NewSource with 1, take
	// its first srcLen draws, and undo the generator. Draw d adds the tap
	// word to the feed word and returns the sum; the feed slots of the
	// first srcLen draws are all distinct, so each draw reads its feed
	// slot's initial word. From draw srcTap on, the tap slot holds draw
	// d-srcTap, so the initial feed word is a difference of two draws;
	// the first srcTap draws read tap slots no draw has written yet,
	// whose initial words the later draws have just given.
	ref := rand.NewSource(1).(rand.Source64)
	var out, vec [srcLen]uint64
	for d := range out {
		out[d] = ref.Uint64()
	}
	feed := func(d int) int { return (2*srcLen - srcTap - 1 - d) % srcLen }
	for d := srcTap; d < srcLen; d++ {
		vec[feed(d)] = out[d] - out[d-srcTap]
	}
	for d := 0; d < srcTap; d++ {
		vec[feed(d)] = out[d] - vec[srcLen-1-d]
	}
	var s source
	s.Seed(1) // with cooked still zero: the bare chain words
	for i := range cooked {
		cooked[i] = vec[i] ^ s.vec[i]
	}
}

// Seed resets the generator to rand.NewSource(seed)'s initial state.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := pmPow[3*i : 3*i+3 : 3*i+3]
		u := (x*p[0]%pmMod)<<40 ^ (x*p[1]%pmMod)<<20 ^ x*p[2]%pmMod
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit draw.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next draw with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
