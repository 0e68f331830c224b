package sim

import (
	"math"
	"testing"
)

// faultTracer panics at the first completion after `after` events: an
// injected fault that leaves the engine mid-step, with a finished run
// still in the active list.
type faultTracer struct{ after int }

func (f *faultTracer) Event(ev TraceEvent) {
	if f.after--; f.after < 0 && ev.Kind == TraceComplete {
		panic("injected fault")
	}
}

// workout drives every driver once and returns the bits of everything
// it measured, followed by the next noise draws.
func workout(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	mix, restart := steadyMix()
	var bits []uint64
	put := func(rs ...Result) {
		for _, r := range rs {
			bits = append(bits, uint64(r.TemplateID))
			for _, v := range []float64{r.Latency, r.IOTime, r.CPUTime, r.SwapBytes, r.Start, r.End} {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	iso, err := e.RunIsolated(mix[0])
	if err != nil {
		t.Fatal(err)
	}
	spo, err := e.RunWithSpoiler(mix[1], 3)
	if err != nil {
		t.Fatal(err)
	}
	put(iso, spo)
	ss, err := e.RunSteadyState(mix, SteadyStateOptions{Samples: 3, RestartCost: restart[0].Stages[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range ss.Results {
		put(rs...)
	}
	batch, makespan, err := e.RunBatch(mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	put(batch...)
	bits = append(bits, math.Float64bits(makespan), math.Float64bits(e.Clock()))
	for i := 0; i < 10; i++ {
		bits = append(bits, e.rng.Uint64())
	}
	return bits
}

// TestReseedMatchesFresh uses an engine every way a campaign can (each
// driver, a tracer, a run left unfinished, a run a panicking tracer cut
// short), reseeds it, and holds it to a new engine: the same state, then
// the same measurements bit for bit.
func TestReseedMatchesFresh(t *testing.T) {
	mix, _ := steadyMix()
	cfg := DefaultConfig().WithSeed(7)
	uses := []struct {
		name string
		use  func(*Engine)
	}{
		{"isolated", func(e *Engine) { e.RunIsolated(mix[2]) }},
		{"spoiler", func(e *Engine) { e.RunWithSpoiler(mix[4], 5) }},
		{"steady-state", func(e *Engine) { e.RunSteadyState(mix, SteadyStateOptions{Samples: 2}) }},
		{"batch", func(e *Engine) { e.RunBatch(append(mix, mix...), 3) }},
		{"workout", func(e *Engine) { workout(t, e) }},
		{"traced", func(e *Engine) {
			e.SetTracer(&RecordingTracer{})
			e.RunSteadyState(mix[:2], SteadyStateOptions{Samples: 1})
		}},
		{"unconverged", func(e *Engine) { e.RunSteadyState(mix, SteadyStateOptions{MaxEvents: 3}) }},
		{"fault", func(e *Engine) {
			defer func() {
				if recover() == nil {
					t.Fatal("the injected fault did not fire")
				}
			}()
			e.SetTracer(&faultTracer{after: 40})
			e.RunSteadyState(mix, SteadyStateOptions{Samples: 3})
		}},
	}
	for _, u := range uses {
		t.Run(u.name, func(t *testing.T) {
			e := NewEngine(cfg)
			u.use(e)
			e.Reseed(11)
			fresh := NewEngine(cfg.WithSeed(11))

			if e.Config() != fresh.Config() || e.Clock() != 0 || e.tracer != nil ||
				len(e.runs) != 0 || len(e.finished) != 0 || e.spoilerPinBytes != 0 || e.spoilerStreams != 0 {
				t.Fatalf("reseeded engine keeps state: config %+v, clock %g, tracer %v, %d runs, %d finished, spoiler %g/%d",
					e.Config(), e.Clock(), e.tracer, len(e.runs), len(e.finished), e.spoilerPinBytes, e.spoilerStreams)
			}
			if e.src != fresh.src {
				t.Fatal("reseeded noise source differs from a new engine's")
			}
			seen := map[*run]bool{}
			for _, r := range e.free {
				if seen[r] {
					t.Fatal("a run is on the free list twice")
				}
				seen[r] = true
			}

			got, want := workout(t, e), workout(t, fresh)
			if len(got) != len(want) {
				t.Fatalf("workout measured %d values, a new engine %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workout value %d = %#x, a new engine measures %#x", i, got[i], want[i])
				}
			}
		})
	}
}

// BenchmarkEngineReseed prices restarting a used engine with a warm free
// list and scratch. It must report 0 allocs/op: a campaign reseeds one
// engine per task attempt.
func BenchmarkEngineReseed(b *testing.B) {
	e, _ := warmSteadyEngine(b)
	e.Reseed(0) // the free list takes the runs in flight once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reseed(int64(i))
	}
}
