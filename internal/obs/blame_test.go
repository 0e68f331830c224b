package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"contender/internal/allocs"
)

func TestBlameObserveAndReport(t *testing.T) {
	b := NewBlame(BlameConfig{Alpha: 0.5})
	// Primary 1 runs twice beside {2, 3}, once beside {2}.
	b.Observe(1, []int{2, 3}, []float64{1.0, 0.5})
	b.Observe(1, []int{2, 3}, []float64{2.0, 0.5})
	b.Observe(1, []int{2}, []float64{4.0})
	// Primary 3 loses to neighbor 2 once.
	b.Observe(3, []int{2}, []float64{10})

	rep := b.Report()
	if rep.Samples != 4 {
		t.Errorf("Samples = %d, want 4", rep.Samples)
	}
	wantPairs := []BlamePair{
		{Primary: 1, Neighbor: 2, Count: 3, Seconds: 7, EWMASeconds: 0.5*4 + 0.5*(0.5*2+0.5*1), LastSeconds: 4},
		{Primary: 1, Neighbor: 3, Count: 2, Seconds: 1, EWMASeconds: 0.5, LastSeconds: 0.5},
		{Primary: 3, Neighbor: 2, Count: 1, Seconds: 10, EWMASeconds: 10, LastSeconds: 10},
	}
	if !reflect.DeepEqual(rep.Pairs, wantPairs) {
		t.Errorf("Pairs = %+v, want %+v", rep.Pairs, wantPairs)
	}
	// Neighbor 2 steals 17s total; neighbor 3 steals 1s.
	wantAgg := []BlameRank{
		{Template: 2, Seconds: 17, Count: 4},
		{Template: 3, Seconds: 1, Count: 2},
	}
	if !reflect.DeepEqual(rep.Aggressors, wantAgg) {
		t.Errorf("Aggressors = %+v, want %+v", rep.Aggressors, wantAgg)
	}
	// Primary 3 loses 10s; primary 1 loses 8s.
	wantVic := []BlameRank{
		{Template: 3, Seconds: 10, Count: 1},
		{Template: 1, Seconds: 8, Count: 5},
	}
	if !reflect.DeepEqual(rep.Victims, wantVic) {
		t.Errorf("Victims = %+v, want %+v", rep.Victims, wantVic)
	}
}

func TestBlameTopKAndTies(t *testing.T) {
	b := NewBlame(BlameConfig{TopK: 2})
	// Three aggressors with seconds 5, 5, 1 — the tie breaks by ID.
	b.Observe(1, []int{20, 10, 30}, []float64{5, 5, 1})
	rep := b.Report()
	want := []BlameRank{
		{Template: 10, Seconds: 5, Count: 1},
		{Template: 20, Seconds: 5, Count: 1},
	}
	if !reflect.DeepEqual(rep.Aggressors, want) {
		t.Errorf("Aggressors = %+v, want %+v", rep.Aggressors, want)
	}
	if len(rep.Victims) != 1 || rep.Victims[0] != (BlameRank{Template: 1, Seconds: 11, Count: 3}) {
		t.Errorf("Victims = %+v", rep.Victims)
	}
}

func TestBlameDroppedSamples(t *testing.T) {
	b := NewBlame(BlameConfig{})
	b.Observe(1, []int{2, 3}, []float64{1})             // length mismatch: dropped whole
	b.Observe(1, nil, nil)                              // empty: dropped
	b.Observe(1, []int{2, 3}, []float64{math.NaN(), 1}) // NaN term dropped, finite kept
	b.Observe(1, []int{4}, []float64{math.Inf(1)})      // Inf term dropped
	rep := b.Report()
	if rep.Samples != 2 {
		t.Errorf("Samples = %d, want 2 (mismatch and empty are not samples)", rep.Samples)
	}
	if len(rep.Pairs) != 1 || rep.Pairs[0].Primary != 1 || rep.Pairs[0].Neighbor != 3 {
		t.Fatalf("Pairs = %+v, want only (1,3)", rep.Pairs)
	}
}

func TestBlameResetTemplate(t *testing.T) {
	b := NewBlame(BlameConfig{})
	b.Observe(1, []int{2}, []float64{3})
	b.Observe(2, []int{1}, []float64{5})
	b.ResetTemplate(1)
	rep := b.Report()
	// The (1,2) cell was reset and re-observed never: it drops out of the
	// matrix. The (2,1) cell — template 1 as a neighbor — is untouched.
	if len(rep.Pairs) != 1 {
		t.Fatalf("Pairs = %+v, want only (2,1)", rep.Pairs)
	}
	if p := rep.Pairs[0]; p.Primary != 2 || p.Neighbor != 1 || p.Seconds != 5 {
		t.Errorf("surviving pair = %+v", p)
	}
	// Monotone observation counters survive the reset.
	snap := b.Registry().Snapshot()
	if got := snap.Counter(`contender_blame_observations_total{pair="1/2"}`); got != 1 {
		t.Errorf("observations counter after reset = %d, want 1", got)
	}
	if got := snap.Gauge(`contender_blame_seconds{pair="1/2"}`); got != 0 {
		t.Errorf("seconds gauge after reset = %g, want 0", got)
	}
	// Re-observing after the reset starts clean (EWMA reseeds).
	b.Observe(1, []int{2}, []float64{7})
	rep = b.Report()
	var cell *BlamePair
	for i := range rep.Pairs {
		if rep.Pairs[i].Primary == 1 && rep.Pairs[i].Neighbor == 2 {
			cell = &rep.Pairs[i]
		}
	}
	if cell == nil || cell.Count != 1 || cell.Seconds != 7 || cell.EWMASeconds != 7 {
		t.Errorf("re-observed cell = %+v, want count 1 seconds 7 ewma 7", cell)
	}
	// Unknown template: no-op.
	b.ResetTemplate(999)
}

func TestBlameNilSafety(t *testing.T) {
	var b *Blame
	b.Observe(1, []int{2}, []float64{1})
	b.ResetTemplate(1)
	if n := b.Samples(); n != 0 {
		t.Errorf("nil Samples = %d", n)
	}
	rep := b.Report()
	if rep.Pairs == nil || rep.Aggressors == nil || rep.Victims == nil {
		t.Error("nil Blame report has nil slices; want empty non-nil for stable JSON")
	}
}

func TestBlameMetricsFamilies(t *testing.T) {
	b := NewBlame(BlameConfig{})
	b.Observe(4, []int{7}, []float64{2.5})
	b.Observe(4, []int{7}, []float64{1.5})
	var sb strings.Builder
	if err := b.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`contender_blame_observations_total{pair="4/7"} 2`,
		`contender_blame_seconds{pair="4/7"} 4`,
		`contender_blame_samples_total 2`,
		`contender_blame_pairs 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestBlameObserveDoesNotAllocate: once a pair's tracker exists, folding
// an explained prediction into the matrix is allocation-free — the
// serving layer calls it per explain-enabled request.
func TestBlameObserveDoesNotAllocate(t *testing.T) {
	b := NewBlame(BlameConfig{})
	neighbors := []int{2, 3}
	seconds := []float64{1.5, 0.5}
	b.Observe(1, neighbors, seconds) // warm the trackers
	if n := allocs.Count(100, func() {
		b.Observe(1, neighbors, seconds)
	}); n != 0 {
		t.Errorf("Observe: %d allocations over 100 calls, want 0", n)
	}
}

// TestBlameDeterministicReport runs the same stream twice and requires
// byte-identical reports — the map-backed rankings must sort before
// emitting.
func TestBlameDeterministicReport(t *testing.T) {
	stream := func() *Blame {
		b := NewBlame(BlameConfig{})
		for i := 0; i < 50; i++ {
			p := i % 7
			b.Observe(p, []int{(p + 1) % 7, (p + 3) % 7}, []float64{float64(i), float64(i) / 2})
		}
		return b
	}
	a, c := stream().Report(), stream().Report()
	if !reflect.DeepEqual(a, c) {
		t.Errorf("same stream produced different reports:\n%+v\n%+v", a, c)
	}
}
