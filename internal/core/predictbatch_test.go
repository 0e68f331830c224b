package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
// primaries and after knowledge mutations: nothing a buffer carries over
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
	// A knowledge mutation invalidates the index; the next batch must
	// price against the new snapshot.
	k.SetScanTime("F", 140)
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
// Every entry point runs on three mixes, one per cqiSlot branch.
func TestServingPathDoesNotAllocate(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Prime()
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
	}
	var buf PredictBuffer
	p.SetQuality(obspkg.NewQuality(obspkg.DriftConfig{}))
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
	// Keep the case list in lockstep with servingGuardSet, which the
	// hotpath marker test (hotpath_test.go) checks against the
	// //contender:hotpath annotations.
	if len(cases) != len(servingGuardSet) {
		t.Fatalf("bench guard covers %d functions, servingGuardSet names %d; keep them in sync", len(cases), len(servingGuardSet))
	}
	for _, tc := range cases {
		if !servingGuardSet[tc.name] {
			t.Fatalf("bench guard case %q is missing from servingGuardSet; keep them in sync", tc.name)
		}
	}

	for _, s := range shapes {
		for _, tc := range cases {
			fn := func() { tc.fn(s.primary, s.mix, s.mixes) }
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("%s on %s mix: %g allocs/op, want 0", tc.name, s.name, allocs)
			}
		}
	}
}
