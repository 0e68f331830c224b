package core

import (
	"errors"
	"math"
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
	if _, err := NewSharded(nil); err == nil {
		t.Error("nil predictor accepted")
	}
	p := trainedFixture(t)
	s, err := NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() != p {
		t.Error("Snapshot is not the wrapped predictor")
	}
	// Every Acquire is a fresh handle with scratch of its own.
	sh, other := s.Acquire(), s.Acquire()
	if sh == other || &sh.buf == &other.buf || &sh.ebuf == &other.ebuf {
		t.Error("Acquire handed out shared scratch")
	}

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
	s, err := NewSharded(p1)
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

// TestShardedDrainMatchesFeedback streams the same samples through
// Predictor.Feedback and through Shard.Observe, and requires identical
// quality reports and identical quality.* events: Observe is Feedback on
// the current snapshot. DrainFeedback folds nothing and reports how many
// samples Observe folded since its previous call.
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
	s, err := NewSharded(sharded)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Acquire()
	for _, sm := range samples {
		if _, err := sh.Observe(sm.tmpl, sm.mix, sm.observed); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := qs.Report(), qd.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("Observe quality report differs from direct feedback:\n got %+v\nwant %+v", got, want)
	}
	if n := s.DrainFeedback(); n != len(samples) {
		t.Errorf("DrainFeedback = %d, want %d", n, len(samples))
	}
	if n := s.DrainFeedback(); n != 0 {
		t.Errorf("second DrainFeedback = %d, want 0", n)
	}

	// Event parity: Observe emits the same quality.* points, in order.
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
		t.Errorf("Observe quality events differ from direct feedback:\n got %+v\nwant %+v", got, want)
	}
}

// TestSubnormalObservationRefused pins that an observation whose
// relative error overflows (a subnormal observed latency) is refused
// with ErrBadObservation, through Feedback and through Shard.Observe,
// before anything is recorded: nothing is folded into the quality
// aggregator and Observe counts nothing for DrainFeedback.
func TestSubnormalObservationRefused(t *testing.T) {
	p := trainedFixture(t)
	q := obspkg.NewQuality(obspkg.DriftConfig{})
	p.SetQuality(q)
	s, err := NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	const observed = math.SmallestNonzeroFloat64
	if _, err := p.Feedback(1, []int{2}, observed); !errors.Is(err, ErrBadObservation) {
		t.Errorf("Feedback(%g): err = %v, want ErrBadObservation", observed, err)
	}
	if _, err := s.Acquire().Observe(1, []int{2}, observed); !errors.Is(err, ErrBadObservation) {
		t.Errorf("Observe(%g): err = %v, want ErrBadObservation", observed, err)
	}
	if n := s.DrainFeedback(); n != 0 {
		t.Errorf("DrainFeedback counted %d samples after a refused observation", n)
	}
	if rep := q.Report(); rep.Samples != 0 {
		t.Errorf("quality folded %d samples after refused observations", rep.Samples)
	}
}

// TestShardObserveConcurrent: several goroutines Observe on one Shard
// while another calls DrainFeedback. Every sample must be folded into
// the quality aggregator and counted by DrainFeedback exactly once; a
// lost or doubled sample breaks either sum, and -race flags any
// unsynchronized access.
func TestShardObserveConcurrent(t *testing.T) {
	p := trainedFixture(t)
	q := obspkg.NewQuality(obspkg.DriftConfig{})
	p.SetQuality(q)
	s, err := NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Acquire()
	const producers, perProducer = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mix := []int{2, 3}
			for i := 0; i < perProducer; i++ {
				if _, err := sh.Observe(1+(w+i)%3, mix, 700); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	drained := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				drained <- n + s.DrainFeedback()
				return
			default:
				n += s.DrainFeedback()
			}
		}
	}()
	wg.Wait()
	close(done)
	if total := <-drained; total != producers*perProducer {
		t.Errorf("DrainFeedback counted %d samples, want %d", total, producers*perProducer)
	}
	if rep := q.Report(); rep.Samples != producers*perProducer {
		t.Errorf("quality folded %d samples, want %d", rep.Samples, producers*perProducer)
	}
}

// TestShardedConcurrentSwapFeedbackQuality hammers serving, feedback
// and quality reporting while the snapshot is hot-swapped between two
// predictors that share one aggregator. The -race CI job turns any
// unsynchronized access into a failure, and every sample must reach the
// aggregator whichever snapshot folded it.
func TestShardedConcurrentSwapFeedbackQuality(t *testing.T) {
	p1 := trainedFixture(t)
	p2 := trainedFixture(t)
	q := obspkg.NewQuality(obspkg.DriftConfig{})
	p1.SetQuality(q)
	p2.SetQuality(q)
	const workers, rounds = 4, 300
	s, err := NewSharded(p1)
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
			for i := 0; i < rounds; i++ {
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
		_ = q.Report()
	}
	if rep := q.Report(); rep.Samples != workers*rounds {
		t.Errorf("quality folded %d samples, want %d", rep.Samples, workers*rounds)
	}
}
