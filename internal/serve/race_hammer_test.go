package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"contender/internal/core"
	"contender/internal/lifecycle"
	"contender/internal/obs"
)

// TestSwapHammerUnderLoad drives pipelined binary traffic and HTTP
// feedback while two mutators fight over the serving snapshot: a direct
// Sharded.Swap ping-pong and lifecycle.ForceRetrain promotions going
// through the full retrain → promote → hot-swap sequence. Every
// predictor shares one quality aggregator. The point is the -race run:
// every snapshot load on the serving path races a concurrent
// publication, so an unsynchronized read anywhere in the swap protocol
// surfaces here as a detector report rather than a production 500. And
// whichever snapshot folds a feedback sample, the aggregator must end
// up holding every sample sent on either front exactly once.
func TestSwapHammerUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("swap hammer: skipped in -short")
	}

	// Predictors never change once built, so re-publishing a retired
	// one in the ping-pong is safe.
	q := obs.NewQuality(obs.DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4})
	p0, p1, p2 := trainedPredictor(t).WithHooks(obs.Sink{}, q), trainedPredictor(t).WithHooks(obs.Sink{}, q), trainedPredictor(t).WithHooks(obs.Sink{}, q)
	sh, err := core.NewSharded(p0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})

	// Each ForceRetrain promotes a fresh candidate. Pre-build them here
	// so the collector goroutine never touches testing.TB. Promotion resets the retrained
	// templates' trackers, so feedback names only the other templates.
	const retrains = 4
	retrained := []int{1, 2}
	candidates := make(chan *core.Predictor, retrains)
	for i := 0; i < retrains; i++ {
		candidates <- trainedPredictor(t)
	}
	m, err := lifecycle.New(sh, lifecycle.Config{
		Quality: q,
		Collector: lifecycle.CollectorFunc(func(context.Context, []int) (*core.Predictor, error) {
			return <-candidates, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	feedback := func(k int) (int, []int, float64) { return 3 + k%3, []int{1 + k%5}, 100 + float64(k%89) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := p1
			if i%2 == 1 {
				p = p2
			}
			if _, err := sh.Swap(p); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; i < retrains; i++ {
			rep, err := m.ForceRetrain(ctx, retrained)
			if err != nil {
				t.Errorf("ForceRetrain: %v", err)
				return
			}
			if rep.Action != lifecycle.ActionPromoted {
				t.Errorf("ForceRetrain action = %s (err %q), want promoted", rep.Action, rep.Err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// HTTP feedback beside the binary load, one request at a time.
	const httpFeedback = 400
	go func() {
		defer wg.Done()
		h := s.Handler()
		for k := 0; k < httpFeedback; k++ {
			primary, mix, observed := feedback(k)
			body, _ := json.Marshal(FeedbackRequest{Primary: primary, Concurrent: mix, Observed: observed})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("http feedback %d: %d %s", k, rec.Code, rec.Body.Bytes())
				return
			}
		}
	}()

	stopped := false
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer halt()

	// The load: 4 connections, each carrying 300 frames. Every fourth
	// frame is feedback; the others price 16 seeded mixes (1–2
	// concurrents over the fixture pool). This goroutine drives them in
	// rounds so the binaryConn helpers may fail the test: each round
	// puts a window of frames in flight on every connection before it
	// reads any reply, and every reply must be a full success.
	const conns, frames, batch, window = 4, 300, 16, 10
	pool := []int{1, 2, 3, 4, 5}
	cs := make([]*binaryConn, conns)
	rngs := make([]*rand.Rand, conns)
	for i := range cs {
		cs[i] = dialBinary(t, addr)
		rngs[i] = rand.New(rand.NewSource(42 + int64(i)))
	}
	for op := 0; op < frames; op += window {
		for i, c := range cs {
			for k := op; k < op+window; k++ {
				if k%4 == 3 {
					primary, mix, observed := feedback(k)
					c.send(OpFeedback, uint32(k), func(b []byte) []byte { return appendF64(appendMix(b, primary, mix), observed) })
					continue
				}
				rng := rngs[i]
				primary := pool[rng.Intn(len(pool))]
				mixes := make([][]int, batch)
				for j := range mixes {
					mixes[j] = make([]int, 1+rng.Intn(2))
					for n := range mixes[j] {
						mixes[j][n] = pool[rng.Intn(len(pool))]
					}
				}
				c.send(OpBatch, uint32(k), func(b []byte) []byte { return appendBatch(b, primary, mixes) })
			}
		}
		for i, c := range cs {
			for k := op; k < op+window; k++ {
				code, reqID, payload := c.recv()
				r := frameReader{b: payload}
				ok := len(payload) == 16 // predicted, signed error
				if k%4 != 3 {
					ok = int(r.u16()) == batch && len(payload) == 2+8*batch
				}
				if code != CodeOK || reqID != uint32(k) || !ok {
					t.Fatalf("conn %d frame %d: code %s reqID %d (%q)", i, k, code, reqID, payload)
				}
			}
		}
	}

	halt()
	const sent = conns*frames/4 + httpFeedback
	if got := q.Report().Samples; got != sent {
		t.Errorf("quality report holds %d samples, want %d", got, sent)
	}
	if got := feedbackTotal(q); got != sent {
		t.Errorf("contender_quality_feedback_total sums to %d, want %d", got, sent)
	}
}

// TestShrinkingSwapHammer swaps the serving snapshot between the fixture
// predictor and one rebuilt from its snapshot without one template, while
// binary and HTTP clients keep naming that template as a neighbor. The
// core validates and prices each request against a single snapshot,
// so every answer must be a success (the request saw the full snapshot)
// or unknown_template (it saw the shrunken one) — never a transient
// failure born in a gap between validation and pricing. Both snapshots
// share one quality aggregator, which must hold exactly the feedback
// samples answered with success.
func TestShrinkingSwapHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("swap hammer: skipped in -short")
	}
	const removed = 5
	q := obs.NewQuality(obs.DriftConfig{})
	full := trainedPredictor(t).WithHooks(obs.Sink{}, q)
	snap := full.Snapshot()
	n := len(snap.Templates)
	snap.Templates = slices.DeleteFunc(snap.Templates, func(ts core.TemplateSnapshot) bool { return ts.ID == removed })
	if len(snap.Templates) == n {
		t.Fatalf("fixture has no template %d", removed)
	}
	models := snap.Models[:0]
	for _, m := range snap.Models {
		if m.Template != removed {
			models = append(models, m)
		}
	}
	snap.Models = models
	shrunk, err := core.PredictorFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	shrunk = shrunk.WithHooks(obs.Sink{}, q)

	s, _, addr := testServer(t, Config{})
	h := s.Handler()
	swap := func(p *core.Predictor) {
		if _, err := s.Sharded().Swap(p); err != nil {
			t.Errorf("Swap: %v", err)
		}
	}
	swap(full)

	// Primaries stay inside the shrunken universe so the removed
	// template is only ever named as a neighbor; mixes without it must
	// always succeed.
	mixFor := func(i int) []int {
		switch i % 4 {
		case 0:
			return []int{removed}
		case 1:
			return []int{1 + i%4, removed}
		case 2:
			return []int{removed, 1 + i%4}
		default:
			return []int{1 + i%4}
		}
	}
	names := func(mix []int) bool {
		for _, id := range mix {
			if id == removed {
				return true
			}
		}
		return false
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var httpFolded, binFolded int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				swap(shrunk)
			} else {
				swap(full)
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			primary, mix := 1+i%4, mixFor(i/4)
			var path string
			var body any
			switch i % 4 {
			case 0:
				path, body = "/v1/predict", PredictRequest{Primary: primary, Concurrent: mix}
			case 1:
				path, body = "/v1/predict", PredictRequest{Primary: primary, Concurrent: mix, Explain: true}
			case 2:
				path, body = "/v1/predict_batch", BatchRequest{Primary: primary, Mixes: [][]int{{1}, mix, {2, 3}}}
			default:
				path, body = "/v1/feedback", FeedbackRequest{Primary: primary, Concurrent: mix, Observed: 500}
			}
			data, _ := json.Marshal(body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
			if rec.Code == http.StatusOK {
				if path == "/v1/feedback" {
					httpFolded++
				}
				continue
			}
			var env ErrorEnvelope
			_ = json.Unmarshal(rec.Body.Bytes(), &env)
			if rec.Code != http.StatusNotFound || env.Error.Code != CodeUnknownTemplate.String() || !names(mix) {
				t.Errorf("http %s %v: %d %s", path, mix, rec.Code, rec.Body.Bytes())
				return
			}
		}
	}()

	c := dialBinary(t, addr)
	for i := 0; i < 400; i++ {
		primary, mix := 1+i%4, mixFor(i/4)
		op := []uint8{OpPredict, OpPredict | FlagExplain, OpBatch, OpFeedback}[i%4]
		c.send(op, uint32(i), func(b []byte) []byte {
			switch op {
			case OpBatch:
				return appendBatch(b, primary, [][]int{mix, {1}})
			case OpFeedback:
				return appendF64(appendMix(b, primary, mix), 500)
			default:
				return appendMix(b, primary, mix)
			}
		})
		code, reqID, payload := c.recv()
		if reqID != uint32(i) {
			t.Fatalf("binary req %d: reply for %d", i, reqID)
		}
		if code != CodeOK && (code != CodeUnknownTemplate || !names(mix)) {
			t.Fatalf("binary op %d %v: code %s (%q)", op, mix, code, payload)
		}
		if code == CodeOK && op == OpFeedback {
			binFolded++
		}
	}
	close(stop)
	wg.Wait()
	if got, want := q.Report().Samples, httpFolded+binFolded; got != want {
		t.Errorf("quality report holds %d samples, want the %d feedback requests answered with success", got, want)
	}

	// Both outcomes are reachable: pin each snapshot and check the answer.
	for _, tc := range []struct {
		p    *core.Predictor
		want Code
	}{{shrunk, CodeUnknownTemplate}, {full, CodeOK}} {
		swap(tc.p)
		c.send(OpPredict, 0, func(b []byte) []byte { return appendMix(b, 1, []int{removed}) })
		if code, _, _ := c.recv(); code != tc.want {
			t.Errorf("pinned snapshot: code %s, want %s", code, tc.want)
		}
	}
}
