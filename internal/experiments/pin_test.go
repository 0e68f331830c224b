package experiments

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"contender/internal/sim"
	"contender/internal/tpcds"
)

// The golden targets compare one build against itself at different
// worker counts, so a change to the simulator's numbers passes them.
// These checksums pin the numbers themselves: an FNV-1a over the float
// bits of everything a campaign measures, and of two fixed driver
// scenarios. A change that moves any bit of the simulator's output must
// update them deliberately (and re-baseline EXPERIMENTS.md).

type bitsHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newBitsHash() *bitsHash { return &bitsHash{h: fnv.New64a()} }

func (b *bitsHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.h.Write(b.buf[:])
}

func (b *bitsHash) int(v int)     { b.u64(uint64(int64(v))) }
func (b *bitsHash) f64(v float64) { b.u64(math.Float64bits(v)) }
func (b *bitsHash) sum() uint64   { return b.h.Sum64() }
func (b *bitsHash) str(s string)  { b.int(len(s)); b.h.Write([]byte(s)) }
func (b *bitsHash) result(r sim.Result) {
	b.int(r.TemplateID)
	b.f64(r.Latency)
	b.f64(r.IOTime)
	b.f64(r.CPUTime)
	b.f64(r.SwapBytes)
	b.f64(r.Start)
	b.f64(r.End)
}

// campaignChecksum hashes the scan times, every template's isolated
// statistics and spoiler latencies, and every observation of env.
func campaignChecksum(env *Env) uint64 {
	b := newBitsHash()
	scans := env.Know.ScanTimes()
	for _, f := range sortedKeys(scans) {
		b.str(f)
		b.f64(scans[f])
	}
	for _, ts := range env.Know.Templates() {
		b.int(ts.ID)
		b.f64(ts.IsolatedLatency)
		b.f64(ts.IOFraction)
		mpls := make([]int, 0, len(ts.SpoilerLatency))
		for m := range ts.SpoilerLatency {
			mpls = append(mpls, m)
		}
		sort.Ints(mpls)
		for _, m := range mpls {
			b.int(m)
			b.f64(ts.SpoilerLatency[m])
		}
	}
	for _, o := range env.AllObservations() {
		b.int(o.Primary)
		for _, id := range o.Concurrent {
			b.int(id)
		}
		b.f64(o.Latency)
	}
	return b.sum()
}

func TestCampaignChecksumPinned(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want uint64
	}{
		// The design contender-serve trains at -max-mpl 5 -seed 42.
		{"serve", Options{MPLs: []int{2, 3, 4, 5}, Seed: 42, Workers: 2}, 0x463abe6317f3a55c},
		// contender-bench -quick -mpls 2,3 (and contender.QuickSampling).
		{"quick", Options{MPLs: []int{2, 3}, LHSRuns: 2, SteadySamples: 3, IsolatedRuns: 2, Seed: 42, Workers: 2}, 0x49e165df413998a4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := NewEnv(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := campaignChecksum(env); got != tc.want {
				t.Errorf("campaign checksum %016x, want %016x", got, tc.want)
			}
		})
	}
}

// TestSimDriversChecksumPinned pins one batch drain and one open-system
// run over the bundled workload on the default host.
func TestSimDriversChecksumPinned(t *testing.T) {
	w := tpcds.NewWorkload()
	var specs []sim.QuerySpec
	for _, id := range w.IDs() {
		specs = append(specs, w.MustSpec(id))
	}

	t.Run("batch", func(t *testing.T) {
		e := sim.NewEngine(sim.DefaultConfig().WithSeed(42))
		results, makespan, err := e.RunBatch(specs, 4)
		if err != nil {
			t.Fatal(err)
		}
		b := newBitsHash()
		for _, r := range results {
			b.result(r)
		}
		b.f64(makespan)
		if got, want := b.sum(), uint64(0xc66b82abaca62b3e); got != want {
			t.Errorf("batch checksum %016x, want %016x", got, want)
		}
	})

	t.Run("open", func(t *testing.T) {
		e := sim.NewEngine(sim.DefaultConfig().WithSeed(42))
		var arrivals []sim.Arrival
		for i, s := range specs {
			arrivals = append(arrivals, sim.Arrival{Time: 40 * float64(i%9) * float64(i%4+1), Spec: s})
		}
		// Admit an even template at once, an odd one only beside at most
		// one other query; never more than three active.
		gate := func(_ float64, q sim.QuerySpec, active []int) bool {
			return q.TemplateID%2 == 0 || len(active) < 2
		}
		out, err := e.RunOpenSystem(arrivals, 3, gate)
		if err != nil {
			t.Fatal(err)
		}
		b := newBitsHash()
		for _, o := range out {
			b.result(o.Result)
			b.f64(o.ArrivalTime)
			b.f64(o.QueueTime)
		}
		if got, want := b.sum(), uint64(0x21f174af7cc04924); got != want {
			t.Errorf("open-system checksum %016x, want %016x", got, want)
		}
	})
}
