package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"contender/internal/allocs"
	obspkg "contender/internal/obs"
)

func TestPredictBatchMatchesPredictKnown(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]int{{1}, {2}, {1, 3}, {4, 5}}
	var buf PredictBuffer
	got, err := p.PredictBatch(&buf, 2, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(mixes) {
		t.Fatalf("got %d predictions for %d mixes", len(got), len(mixes))
	}
	for i, mix := range mixes {
		want, err := p.PredictKnown(2, mix)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("mix %v: batch %g != single %g", mix, got[i], want)
		}
	}

	// Reuse must overwrite, not append.
	again, err := p.PredictBatch(&buf, 2, mixes[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 {
		t.Fatalf("reused buffer returned %d predictions, want 2", len(again))
	}
	if res := buf.Results(); len(res) != 2 {
		t.Fatalf("Results() has %d entries after reuse, want 2", len(res))
	}
}

// TestPredictBufferReuseAcrossPrimaries reuses one buffer for different
// primaries and across predictors: nothing a buffer carries over
// from a previous call may skew results. Every batch must stay
// bit-identical to per-mix PredictKnown.
func TestPredictBufferReuseAcrossPrimaries(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]int{{2}, {1, 3}, {4, 5}, {1, 3}, {3, 1}}
	var buf PredictBuffer
	check := func(primary int) {
		t.Helper()
		got, err := p.PredictBatch(&buf, primary, mixes)
		if err != nil {
			t.Fatal(err)
		}
		for i, mix := range mixes {
			want, err := p.PredictKnown(primary, mix)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("primary %d mix %v: batch %g != single %g", primary, mix, got[i], want)
			}
		}
	}
	check(2)
	check(5) // different primary, same buffer
	check(2) // and back
	// A predictor over different scan times prices through the same
	// buffer against its own knowledge base.
	snap := p.Snapshot()
	snap.ScanTimes["F"] = 140
	if p, err = PredictorFromSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check(2)
	check(5)
}

// TestPredictBatchErrorRecovery drives every mid-batch error class
// through a shared buffer and verifies the next successful batch is
// uncorrupted and Results() never exposes partial output.
func TestPredictBatchErrorRecovery(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]int{{2}, {1, 3}, {4, 5}}
	var buf PredictBuffer
	fail := []struct {
		name    string
		primary int
		mixes   [][]int
		sent    error
		at      int // index of the failing mix the error must name
	}{
		{"empty mix mid-batch", 1, [][]int{{2}, {}, {3}}, ErrEmptyMix, 1},
		{"untrained MPL mid-batch", 1, [][]int{{2}, {2, 3, 4}, {3}}, ErrUntrainedMPL, 1},
		{"unknown primary", 999, [][]int{{2}, {3}}, ErrUnknownTemplate, 0},
		{"unknown concurrent mid-batch", 1, [][]int{{2}, {3}, {4, 999}, {5}}, ErrUnknownTemplate, 2},
	}
	for _, tc := range fail {
		if _, err := p.PredictBatch(&buf, 1, good); err != nil {
			t.Fatal(err)
		}
		_, err := p.PredictBatch(&buf, tc.primary, tc.mixes)
		if !errors.Is(err, tc.sent) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.sent)
		}
		if want := fmt.Sprintf("batch mix %d:", tc.at); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %q does not name %q", tc.name, err, want)
		}
		if res := buf.Results(); len(res) != 0 {
			t.Errorf("%s: Results() holds %d entries after a failed batch, want 0", tc.name, len(res))
		}
		got, err := p.PredictBatch(&buf, 1, good)
		if err != nil {
			t.Fatalf("%s: batch after failure: %v", tc.name, err)
		}
		for i, mix := range good {
			want, err := p.PredictKnown(1, mix)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("%s: post-failure mix %v: batch %g != single %g", tc.name, mix, got[i], want)
			}
		}
	}
}

// TestPredictBatchDuplicates checks repeated and permuted mixes: identical
// mixes get identical results in input order, while permutations of one
// set are priced independently — CQI sums in mix order, so they are only
// equal if the float sums happen to agree.
func TestPredictBatchDuplicates(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]int{{1, 3}, {4, 5}, {1, 3}, {3, 1}, {1, 3}, {2}}
	var buf PredictBuffer
	got, err := p.PredictBatch(&buf, 2, mixes)
	if err != nil {
		t.Fatal(err)
	}
	for i, mix := range mixes {
		want, err := p.PredictKnown(2, mix)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("mix %d %v: batch %g != single %g", i, mix, got[i], want)
		}
	}
	if got[0] != got[2] || got[0] != got[4] {
		t.Errorf("identical mixes disagree: %g %g %g", got[0], got[2], got[4])
	}
}

func TestPredictBatchErrors(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictBatch(nil, 1, [][]int{{2}}); err == nil {
		t.Error("nil buffer accepted")
	}
	var buf PredictBuffer
	if _, err := p.PredictBatch(&buf, 999, [][]int{{2}}); err == nil {
		t.Error("unknown primary accepted")
	}
	if _, err := p.PredictBatch(&buf, 1, [][]int{{2}, {}}); err == nil {
		t.Error("empty mix accepted (MPL 1 has no model)")
	}
	if _, err := p.PredictBatch(&buf, 1, [][]int{{2}, {3, 999}}); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("unknown concurrent template: err = %v, want ErrUnknownTemplate", err)
	}
}

// The serving hot path must not allocate: a scheduler probing thousands of
// candidate mixes per decision would otherwise spend its time in GC.
// Every entry point runs on four mixes: one per cqiSlot branch, and one
// with more neighbours than maxSharers, which prices τ per scan instead
// of from the bit-sliced sharer counters.
func TestServingPathDoesNotAllocate(t *testing.T) {
	k, obs := wideFixture(t)
	trained, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name    string
		primary int
		mix     []int
		mixes   [][]int
	}{
		// 2 and 3 share G, which primary 1 does not read: the τ branch.
		{"tau", 1, []int{2, 3}, [][]int{{2, 3}, {3, 2}, {2, 3}}},
		// A single neighbor has h_f ≤ 1 everywhere: the term0 branch.
		{"single", 3, []int{1}, [][]int{{1}, {5}, {2}}},
		// 2 and 3 share only G, which primary 2 reads: term0 again.
		{"read-by-primary", 2, []int{2, 3}, [][]int{{1}, {2}, {1, 3}}},
		// Eight neighbours (MPL 9): the inexact τ path, tauSlot.
		{"wide", 1, []int{2, 3, 2, 3, 2, 3, 2, 3}, [][]int{{2, 3, 2, 3, 2, 3, 2, 3}, {5, 5, 2, 3, 2, 3, 2, 3}, {2}}},
	}
	// Every entry point runs bare and with the Metrics observer that
	// contender-serve attaches: the emission branches are served code.
	quality := obspkg.NewQuality(obspkg.DriftConfig{})
	observers := []struct {
		name     string
		observer obspkg.Sink
	}{{"", obspkg.Sink{}}, {" (observed)", obspkg.Isolate(obspkg.NewMetrics())}}
	for _, o := range observers {
		var buf PredictBuffer
		p := trained.WithHooks(o.observer, quality)
		sharded, err := NewSharded(p)
		if err != nil {
			t.Fatal(err)
		}
		sh := sharded.Acquire()
		var ebuf ExplainBuffer
		for _, s := range shapes { // warm every buffer and template tracker
			if _, err := p.PredictBatch(&buf, s.primary, s.mixes); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Feedback(s.primary, s.mix, 1.5); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.BatchPredict(s.primary, s.mixes); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Observe(s.primary, s.mix, 1.5); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PredictExplain(&ebuf, s.primary, s.mix); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Explain(s.primary, s.mix); err != nil {
				t.Fatal(err)
			}
		}

		cases := []struct {
			name string
			fn   func(primary int, mix []int, mixes [][]int)
		}{
			{"CQI", func(primary int, mix []int, _ [][]int) { k.CQI(primary, mix) }},
			{"PositiveIO", func(primary int, mix []int, _ [][]int) { k.PositiveIO(primary, mix) }},
			{"BaselineIO", func(_ int, mix []int, _ [][]int) { k.BaselineIO(mix) }},
			{"PredictKnown", func(primary int, mix []int, _ [][]int) {
				if _, err := p.PredictKnown(primary, mix); err != nil {
					t.Fatal(err)
				}
			}},
			{"PredictBatch", func(primary int, _ []int, mixes [][]int) {
				if _, err := p.PredictBatch(&buf, primary, mixes); err != nil {
					t.Fatal(err)
				}
			}},
			{"PredictExplain", func(primary int, mix []int, _ [][]int) {
				if _, err := p.PredictExplain(&ebuf, primary, mix); err != nil {
					t.Fatal(err)
				}
			}},
			{"Feedback", func(primary int, mix []int, _ [][]int) {
				if _, err := p.Feedback(primary, mix, 1.5); err != nil {
					t.Fatal(err)
				}
			}},
			{"Predict", func(primary int, mix []int, _ [][]int) {
				if _, err := sh.Predict(primary, mix); err != nil {
					t.Fatal(err)
				}
			}},
			{"BatchPredict", func(primary int, _ []int, mixes [][]int) {
				if _, err := sh.BatchPredict(primary, mixes); err != nil {
					t.Fatal(err)
				}
			}},
			{"Observe", func(primary int, mix []int, _ [][]int) {
				// The ring eventually fills without a drain; the drop path
				// must be allocation-free too, so no drain here on purpose.
				if _, err := sh.Observe(primary, mix, 1.5); err != nil {
					t.Fatal(err)
				}
			}},
			{"Explain", func(primary int, mix []int, _ [][]int) {
				if _, err := sh.Explain(primary, mix); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, s := range shapes {
			for _, tc := range cases {
				fn := func() { tc.fn(s.primary, s.mix, s.mixes) }
				if n := allocs.Count(100, fn); n != 0 {
					t.Errorf("%s on %s mix%s: %d allocations over 100 calls, want 0", tc.name, s.name, o.name, n)
				}
			}
		}
	}

	// Feedback whose samples move a template through its drift states:
	// healthy, then a shifted world (degraded, then stale), then healthy
	// again. The quality.drift emission runs only on those transitions.
	// The sequence runs twice, each time on a fresh aggregator, and the
	// second run is counted: the first drift point a Metrics sees
	// resolves its series once, as the warm-up above does for the others.
	var factors []float64
	for _, phase := range []struct {
		n      int
		factor float64
	}{{10, 1}, {40, 1.8}, {60, 1}} {
		for i := 0; i < phase.n; i++ {
			factors = append(factors, phase.factor)
		}
	}
	for _, o := range observers {
		var n uint64
		var transitions int
		for pass := 0; pass < 2; pass++ {
			q := obspkg.NewQuality(obspkg.DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4})
			p := trained.WithHooks(o.observer, q)
			mix := []int{2, 3}
			predicted, err := p.PredictKnown(1, mix)
			if err != nil {
				t.Fatal(err)
			}
			call := 0
			transitions = 0
			n = allocs.Count(len(factors)-1, func() {
				res, err := p.Feedback(1, mix, predicted*factors[call])
				if err != nil {
					t.Fatal(err)
				}
				if res.Transitioned {
					transitions++
				}
				call++
			})
		}
		if transitions < 3 {
			t.Errorf("Feedback across drift%s: %d state transitions, want at least 3", o.name, transitions)
		}
		if n != 0 {
			t.Errorf("Feedback across drift%s: %d allocations over %d calls, want 0", o.name, n, len(factors)-1)
		}
	}

	// Kernel branches the trained fixture does not reach. Each mix shares
	// G, which primary 1 does not read, so its τ is priced per call: a
	// neighbour whose savings exceed its I/O (intensitySlot truncates r
	// to 0), one with no isolated latency (r is 0 outright), and an ID
	// too far out for the dense slot table (posOf's map).
	edge := testKnowledge(
		TemplateStats{ID: 5, IsolatedLatency: 100, IOFraction: 0.6, Scans: map[string]bool{"F": true, "G": true}},
		TemplateStats{ID: 6, IOFraction: 0.5, Scans: map[string]bool{"G": true}},
		TemplateStats{ID: 1 << 20, IsolatedLatency: 50, IOFraction: 0.7, Scans: map[string]bool{"G": true}},
	)
	for _, mix := range [][]int{{5, 2}, {6, 2}, {1 << 20, 2, 3}} {
		for _, fn := range []func() (float64, error){
			func() (float64, error) { return edge.CQI(1, mix) },
			func() (float64, error) { return edge.PositiveIO(1, mix) },
			func() (float64, error) { return edge.BaselineIO(mix) },
		} {
			if _, err := fn(); err != nil {
				t.Fatal(err)
			}
			if n := allocs.Count(100, func() { fn() }); n != 0 {
				t.Errorf("kernel on edge mix %v: %d allocations over 100 calls, want 0", mix, n)
			}
		}
	}
}
