package core

import (
	"errors"
	"testing"

	obspkg "contender/internal/obs"
)

// TestPredictExplainMatchesPredictKnown asserts the decomposition's
// exactness contract bit for bit: Total equals PredictKnown, CQI equals
// Knowledge.CQI, and summing the recorded intensities in slice order
// reconstructs the CQI exactly — no tolerances anywhere.
func TestPredictExplainMatchesPredictKnown(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]int{{1}, {2}, {5}, {1, 3}, {4, 5}, {3, 1}, {2, 2}}
	var buf ExplainBuffer
	for _, primary := range []int{1, 2, 5} {
		for _, mix := range mixes {
			got, err := p.PredictExplain(&buf, primary, mix)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.PredictKnown(primary, mix)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || buf.Total != want {
				t.Errorf("primary %d mix %v: explain %g != known %g", primary, mix, got, want)
			}
			if r := k.CQI(primary, mix); buf.CQI != r {
				t.Errorf("primary %d mix %v: buf.CQI %g != CQI %g", primary, mix, buf.CQI, r)
			}
			if len(buf.Neighbors) != len(mix) || len(buf.Intensity) != len(mix) || len(buf.Seconds) != len(mix) {
				t.Fatalf("primary %d mix %v: slice lengths %d/%d/%d, want %d", primary, mix,
					len(buf.Neighbors), len(buf.Intensity), len(buf.Seconds), len(mix))
			}
			// Reconstruct the CQI from the per-neighbor terms in slice
			// order: bit-identical, because the terms were recorded in
			// the summation's own order.
			var sum float64
			for _, in := range buf.Intensity {
				sum += in
			}
			if r := sum / float64(len(mix)); r != buf.CQI {
				t.Errorf("primary %d mix %v: reconstructed CQI %g != %g", primary, mix, r, buf.CQI)
			}
			for i, in := range buf.Intensity {
				if buf.Seconds[i] != in*buf.Scale {
					t.Errorf("primary %d mix %v neighbor %d: Seconds %g != Intensity·Scale %g",
						primary, mix, i, buf.Seconds[i], in*buf.Scale)
				}
			}
			if buf.Interaction() != buf.Total-buf.Baseline {
				t.Errorf("Interaction() %g != Total-Baseline %g", buf.Interaction(), buf.Total-buf.Baseline)
			}
			if buf.Primary != primary || buf.MPL != len(mix)+1 {
				t.Errorf("primary %d mix %v: echoed primary/MPL %d/%d", primary, mix, buf.Primary, buf.MPL)
			}
		}
	}
}

// TestPredictExplainErrors drives every PredictKnown error class through
// PredictExplain and checks the buffer never retains a previous call's
// decomposition after a failure.
func TestPredictExplainErrors(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictExplain(nil, 1, []int{2}); err == nil {
		t.Error("nil buffer accepted")
	}
	var buf ExplainBuffer
	if _, err := p.PredictExplain(&buf, 1, []int{2, 3}); err != nil { // fill it
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		primary int
		mix     []int
		sent    error
	}{
		{"empty mix", 1, nil, ErrEmptyMix},
		{"untrained MPL", 1, []int{2, 3, 4}, ErrUntrainedMPL},
		{"unknown primary", 999, []int{2}, ErrUnknownTemplate},
		{"unknown concurrent", 1, []int{2, 999}, ErrUnknownTemplate},
	}
	for _, tc := range cases {
		if _, err := p.PredictExplain(&buf, 1, []int{2, 3}); err != nil {
			t.Fatal(err)
		}
		_, err := p.PredictExplain(&buf, tc.primary, tc.mix)
		if !errors.Is(err, tc.sent) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.sent)
		}
		if len(buf.Neighbors) != 0 || len(buf.Intensity) != 0 || len(buf.Seconds) != 0 ||
			buf.Total != 0 || buf.CQI != 0 || buf.Primary != 0 {
			t.Errorf("%s: buffer retains stale decomposition after failure: %+v", tc.name, buf)
		}
	}
}

// TestPredictExplainObserved checks the serve.predict_explain span fires
// with the prediction as its value.
func TestPredictExplainObserved(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obspkg.NewRecording()
	p.SetObserver(rec)
	var buf ExplainBuffer
	v, err := p.PredictExplain(&buf, 2, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Span != obspkg.SpanServePredictExplain || ev.Kind != obspkg.SpanEnd {
		t.Errorf("event %v/%v, want end %s", ev.Kind, ev.Span, obspkg.SpanServePredictExplain)
	}
	if ev.Value != v || ev.Template != 2 || ev.MPL != 3 {
		t.Errorf("event payload %+v, want value %g template 2 mpl 3", ev, v)
	}
}

// TestShardExplain checks the sharded handle produces the same
// decomposition as the snapshot's PredictExplain and reuses its buffer.
func TestShardExplain(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	sh := sharded.Acquire()
	eb, err := sh.Explain(2, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	var want ExplainBuffer
	if _, err := p.PredictExplain(&want, 2, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if eb.Total != want.Total || eb.CQI != want.CQI || eb.Scale != want.Scale {
		t.Errorf("shard explain %+v != predictor explain %+v", eb, want)
	}
	again, err := sh.Explain(2, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if again != eb {
		t.Error("shard explain did not reuse its buffer")
	}
	if _, err := sh.Explain(2, nil); !errors.Is(err, ErrEmptyMix) {
		t.Errorf("empty mix err = %v, want ErrEmptyMix", err)
	}
}
