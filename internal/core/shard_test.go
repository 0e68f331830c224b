package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	obspkg "contender/internal/obs"
)

func trainedFixture(t *testing.T) *Predictor {
	t.Helper()
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShardedBasics(t *testing.T) {
	if _, err := NewSharded(nil, ShardOptions{}); err == nil {
		t.Error("nil predictor accepted")
	}
	p := trainedFixture(t)
	s, err := NewSharded(p, ShardOptions{Shards: 3, RingSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", s.NumShards())
	}
	if s.Snapshot() != p {
		t.Error("Snapshot is not the wrapped predictor")
	}
	// Acquire round-robins deterministically across shards.
	ids := []int{s.Acquire().ID(), s.Acquire().ID(), s.Acquire().ID(), s.Acquire().ID()}
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 0}) {
		t.Errorf("Acquire order %v, want round-robin 0 1 2 0", ids)
	}
	// RingSize rounds up to a power of two.
	if n := len(s.shards[0].ring.buf); n != 128 {
		t.Errorf("ring capacity %d, want 128 (100 rounded up)", n)
	}

	sh := s.shards[0]
	mix := []int{2, 3}
	got, err := sh.Predict(1, mix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.PredictKnown(1, mix)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("shard Predict %g != PredictKnown %g", got, want)
	}

	mixes := [][]int{{2}, {2, 3}, {4, 5}}
	batch, err := sh.BatchPredict(1, mixes)
	if err != nil {
		t.Fatal(err)
	}
	var buf PredictBuffer
	direct, err := p.PredictBatch(&buf, 1, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, direct) {
		t.Errorf("shard BatchPredict %v != PredictBatch %v", batch, direct)
	}

	// Observe validates like Feedback and reports the same signed error.
	if _, err := sh.Observe(1, mix, -1); !errors.Is(err, ErrBadObservation) {
		t.Errorf("negative observation: err = %v, want ErrBadObservation", err)
	}
	if _, err := sh.Observe(999, mix, 1.5); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("unknown template: err = %v, want ErrUnknownTemplate", err)
	}
	if _, err := sh.Observe(1, []int{2, 999}, 1.5); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("unknown concurrent template: err = %v, want ErrUnknownTemplate", err)
	}
	res, err := sh.Observe(1, mix, want*2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != want || res.SignedError != (want*2-want)/(want*2) {
		t.Errorf("Observe result %+v inconsistent with prediction %g", res, want)
	}
}

func TestShardedSwap(t *testing.T) {
	p1 := trainedFixture(t)
	p2 := trainedFixture(t)
	s, err := NewSharded(p1, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap(nil); err == nil {
		t.Error("nil swap accepted")
	}
	old, err := s.Swap(p2)
	if err != nil {
		t.Fatal(err)
	}
	if old != p1 {
		t.Error("Swap did not return the previous predictor")
	}
	if s.Snapshot() != p2 {
		t.Error("Swap did not install the new predictor")
	}
	// The new snapshot serves immediately.
	if _, err := s.Acquire().Predict(1, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDrainMatchesFeedback streams the same samples through the
// mutex-protected Feedback path and through Observe+DrainFeedback, and
// requires identical quality reports and identical quality.* events: the
// ring buffer defers the aggregation but must not change it.
func TestShardedDrainMatchesFeedback(t *testing.T) {
	type sample struct {
		tmpl     int
		mix      []int
		observed float64
	}
	samples := []sample{}
	for i := 0; i < 40; i++ {
		samples = append(samples, sample{tmpl: 1 + i%3, mix: []int{4, 5}, observed: 500 + float64(i*37%211)})
	}

	direct := trainedFixture(t)
	qd := obspkg.NewQuality(obspkg.DriftConfig{})
	rd := obspkg.NewRecording()
	direct.SetQuality(qd)
	direct.SetObserver(rd)
	for _, sm := range samples {
		if _, err := direct.Feedback(sm.tmpl, sm.mix, sm.observed); err != nil {
			t.Fatal(err)
		}
	}

	sharded := trainedFixture(t)
	qs := obspkg.NewQuality(obspkg.DriftConfig{})
	rs := obspkg.NewRecording()
	sharded.SetQuality(qs)
	sharded.SetObserver(rs)
	s, err := NewSharded(sharded, ShardOptions{Shards: 1, RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Acquire()
	for _, sm := range samples {
		if _, err := sh.Observe(sm.tmpl, sm.mix, sm.observed); err != nil {
			t.Fatal(err)
		}
	}
	if drained := s.DrainFeedback(); drained != len(samples) {
		t.Fatalf("drained %d samples, want %d", drained, len(samples))
	}
	if dropped := s.FeedbackDropped(); dropped != 0 {
		t.Fatalf("dropped %d samples, want 0", dropped)
	}

	if got, want := qs.Report(), qd.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("drained quality report differs from direct feedback:\n got %+v\nwant %+v", got, want)
	}

	// Event parity: the drain emits the same quality.* points, in order.
	// Feedback also emits serve.* spans around the drain-side events on
	// the direct predictor — compare only the quality points.
	filter := func(evs []obspkg.Event) []obspkg.Event {
		var out []obspkg.Event
		for _, e := range evs {
			if e.Span == obspkg.PointQualityFeedback || e.Span == obspkg.PointQualityDrift {
				e.Dur = 0
				out = append(out, e)
			}
		}
		return out
	}
	got, want := filter(rs.Events()), filter(rd.Events())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained quality events differ from direct feedback:\n got %+v\nwant %+v", got, want)
	}

	// Without an observer the drain folds runs via ObserveRun — the
	// report must still match sample-by-sample aggregation.
	runPred := trainedFixture(t)
	qr := obspkg.NewQuality(obspkg.DriftConfig{})
	runPred.SetQuality(qr)
	s2, err := NewSharded(runPred, ShardOptions{Shards: 1, RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sh2 := s2.Acquire()
	for _, sm := range samples {
		if _, err := sh2.Observe(sm.tmpl, sm.mix, sm.observed); err != nil {
			t.Fatal(err)
		}
	}
	s2.DrainFeedback()
	if got, want := qr.Report(), qd.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveRun-folded report differs from per-sample aggregation:\n got %+v\nwant %+v", got, want)
	}
}

func TestShardedRingOverflow(t *testing.T) {
	p := trainedFixture(t)
	q := obspkg.NewQuality(obspkg.DriftConfig{})
	p.SetQuality(q)
	s, err := NewSharded(p, ShardOptions{Shards: 1, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Acquire()
	for i := 0; i < 10; i++ {
		if _, err := sh.Observe(1, []int{2, 3}, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := s.FeedbackDropped(); dropped != 6 {
		t.Errorf("dropped %d samples, want 6 (ring capacity 4)", dropped)
	}
	if drained := s.DrainFeedback(); drained != 4 {
		t.Errorf("drained %d samples, want 4", drained)
	}
	// After a drain the ring accepts samples again.
	if _, err := sh.Observe(1, []int{2, 3}, 1000); err != nil {
		t.Fatal(err)
	}
	if drained := s.DrainFeedback(); drained != 1 {
		t.Errorf("post-overflow drain got %d samples, want 1", drained)
	}
}

// TestShardedConcurrentSwapFeedbackQuality hammers serving, feedback
// ingestion, draining, and quality reporting while the snapshot is
// hot-swapped — the -race CI job turns any unsynchronized access into a
// failure.
func TestShardedConcurrentSwapFeedbackQuality(t *testing.T) {
	p1 := trainedFixture(t)
	p2 := trainedFixture(t)
	q := obspkg.NewQuality(obspkg.DriftConfig{})
	p1.SetQuality(q)
	p2.SetQuality(q)
	const workers = 4
	s, err := NewSharded(p1, ShardOptions{Shards: workers, RingSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := s.Acquire()
			mix := []int{2, 3}
			mixes := [][]int{{2}, {4, 5}, {2, 3}}
			for i := 0; i < 300; i++ {
				if _, err := sh.Predict(1, mix); err != nil {
					t.Error(err)
					return
				}
				if _, err := sh.BatchPredict(1, mixes); err != nil {
					t.Error(err)
					return
				}
				if _, err := sh.Observe(1+i%3, mix, 700); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cur := p1
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		next := p1
		if cur == p1 {
			next = p2
		}
		if _, err := s.Swap(next); err != nil {
			t.Error(err)
			running = false
		}
		cur = next
		s.DrainFeedback()
		_ = q.Report()
		_ = s.FeedbackDropped()
	}
	s.DrainFeedback()
	if rep := q.Report(); rep.Samples == 0 {
		t.Error("no feedback samples reached the quality aggregator")
	}
}
