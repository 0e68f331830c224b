package sim_test

import (
	"testing"

	"contender/internal/allocs"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// steadyRun returns a func that reseeds one engine and runs a 4-stream
// TPC-DS mix to steady state with the campaign's restart cost: one
// campaign mix task at MPL 4.
func steadyRun(tb testing.TB) func() {
	w := tpcds.NewWorkload()
	mix := []sim.QuerySpec{w.MustSpec(71), w.MustSpec(2), w.MustSpec(62), w.MustSpec(26)}
	opts := sim.SteadyStateOptions{Samples: 5, WarmupSkip: 1, RestartCost: tpcds.RestartCost()}
	e := sim.NewEngine(sim.DefaultConfig())
	return func() {
		e.Reseed(42)
		if _, err := e.RunSteadyState(mix, opts); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestWarmSteadyStateRunDoesNotAllocate(t *testing.T) {
	run := steadyRun(t)
	run() // sizes the free list and the scratch
	if n := allocs.Count(5, run); n != 0 {
		t.Fatalf("5 warm steady-state runs allocated %d times, want 0", n)
	}
}

// BenchmarkRunSteadyState prices one whole steady-state run on a reseeded
// engine, as a campaign's mix task runs it. It must report 0 allocs/op.
func BenchmarkRunSteadyState(b *testing.B) {
	run := steadyRun(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
