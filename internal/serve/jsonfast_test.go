package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"contender/internal/core"
	"contender/internal/obs"
)

// TestFloatRenderingMatchesJSON pins the hand encoder's float rendering
// to json.Marshal byte for byte: around both format switches (1e-6 and
// 1e21), at the extremes, and on random finite bit patterns.
func TestFloatRenderingMatchesJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, 0.1, 1.5, 100, 123456789, 1e20, 5e-7,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e-7, 1e-9, 1e-10, 1.2345e-100, 1e100,
		math.SmallestNonzeroFloat64, 2.5e-310, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64,
	}
	for _, v := range values[:len(values):len(values)] {
		values = append(values, -v)
	}
	r := rand.New(rand.NewSource(1))
	for len(values) < 100_000 {
		if v := math.Float64frombits(r.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			values = append(values, v)
		}
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		e := encoder{finite: true}
		e.float(v)
		if !bytes.Equal(e.b, want) {
			t.Fatalf("%v (bits %#x): rendered %s, json.Marshal %s", v, math.Float64bits(v), e.b, want)
		}
	}
}

// TestNonFiniteResponseFails pins that a float JSON cannot carry fails
// the body instead of being written.
func TestNonFiniteResponseFails(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendPredictResponse(nil, &PredictResponse{Prediction: v}); !errors.Is(err, errNonFinite) {
			t.Errorf("predict %v: err = %v, want errNonFinite", v, err)
		}
		if _, err := appendBatchResponse(nil, &BatchResponse{Predictions: []float64{1, v}}); !errors.Is(err, errNonFinite) {
			t.Errorf("batch %v: err = %v, want errNonFinite", v, err)
		}
		if _, err := appendFeedbackResponse(nil, &FeedbackResponse{Predicted: 1, SignedError: v}); !errors.Is(err, errNonFinite) {
			t.Errorf("feedback %v: err = %v, want errNonFinite", v, err)
		}
	}
}

// fillFinite sets every field reachable from v to a random non-zero
// value, so a v1 response field the hand encoder does not write shows
// up in json.Marshal's output and nowhere else.
func fillFinite(t *testing.T, v reflect.Value, r *rand.Rand) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		f := math.Float64frombits(r.Uint64())
		for f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			f = math.Float64frombits(r.Uint64())
		}
		v.SetFloat(f)
	case reflect.Int:
		v.SetInt(r.Int63() - r.Int63())
	case reflect.Slice:
		n := 1 + r.Intn(4)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillFinite(t, s.Index(i), r)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillFinite(t, p.Elem(), r)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFinite(t, v.Field(i), r)
		}
	default:
		t.Fatalf("fillFinite: no filler for %s; extend it and the hand encoder", v.Type())
	}
}

// TestResponseBodiesMatchJSON pins every success body to what
// json.NewEncoder(w).Encode wrote: json.Marshal plus a newline.
func TestResponseBodiesMatchJSON(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	check := func(name string, v any, got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s:\nhand encoder %s\njson.Marshal %s", name, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		var explain PredictResponse
		fillFinite(t, reflect.ValueOf(&explain).Elem(), r)
		got, err := appendPredictResponse(nil, &explain)
		check("explain", explain, got, err)

		predict := explain
		predict.Explain = nil
		got, err = appendPredictResponse(nil, &predict)
		check("predict", predict, got, err)

		var batch BatchResponse
		fillFinite(t, reflect.ValueOf(&batch).Elem(), r)
		got, err = appendBatchResponse(nil, &batch)
		check("batch", batch, got, err)

		var feedback FeedbackResponse
		fillFinite(t, reflect.ValueOf(&feedback).Elem(), r)
		got, err = appendFeedbackResponse(nil, &feedback)
		check("feedback", feedback, got, err)
	}
	for _, batch := range []BatchResponse{{}, {Predictions: []float64{}}} {
		got, err := appendBatchResponse(nil, &batch)
		check("empty batch", batch, got, err)
	}
	empty := PredictResponse{Prediction: 1, Explain: &ExplainBreakdown{Neighbors: []int{}}}
	got, err := appendPredictResponse(nil, &empty)
	check("empty explain", empty, got, err)
}

// httpRecorder is a reusable http.ResponseWriter that keeps only what
// the allocation test and benchmarks check.
type httpRecorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *httpRecorder) Header() http.Header { return r.h }

func (r *httpRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func (r *httpRecorder) WriteHeader(code int) { r.code = code }

func (r *httpRecorder) reset() {
	clear(r.h)
	r.code = http.StatusOK
	r.body.Reset()
}

// httpFixture is one reusable request on a handler: the request, its
// body reader and the recorder belong to the caller and are reused.
type httpFixture struct {
	h    http.Handler
	req  *http.Request
	rd   *bytes.Reader
	body []byte
	rec  *httpRecorder
}

func newHTTPFixture(h http.Handler, path string, body []byte) *httpFixture {
	fx := &httpFixture{h: h, rd: bytes.NewReader(body), body: body, rec: &httpRecorder{h: http.Header{}}}
	fx.req = httptest.NewRequest(http.MethodPost, path, nil)
	fx.req.Body = io.NopCloser(fx.rd)
	fx.req.ContentLength = int64(len(body))
	return fx
}

func (fx *httpFixture) serve() {
	fx.rd.Reset(fx.body)
	fx.rec.reset()
	fx.h.ServeHTTP(fx.rec, fx.req)
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPHandlerWarmAllocs pins the HTTP front's allocation budget: a
// warm handler allocates at most twice per predict, explain, batch and
// feedback request (the HTTP front's counterpart of
// TestHandleFrameWarmAllocFree).
func TestHTTPHandlerWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	mixes := make([][]int, 16)
	for i := range mixes {
		mixes[i] = []int{1 + i%5, 1 + (i/5)%5}[:1+i%2]
	}
	mix := []int{2, 3}
	cases := []struct {
		name, path string
		body       any
	}{
		{"predict", "/v1/predict", PredictRequest{Primary: 1, Concurrent: mix}},
		{"explain", "/v1/predict", PredictRequest{Primary: 1, Concurrent: mix, Explain: true}},
		{"batch", "/v1/predict_batch", BatchRequest{Primary: 1, Mixes: mixes}},
		{"feedback", "/v1/feedback", FeedbackRequest{Primary: 1, Concurrent: mix, Observed: 512.5}},
	}
	for _, tc := range cases {
		fx := newHTTPFixture(s.Handler(), tc.path, mustJSON(t, tc.body))
		fx.serve() // warm the pooled scratch
		if fx.rec.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, fx.rec.code, fx.rec.body.Bytes())
		}
		if allocs := testing.AllocsPerRun(100, fx.serve); allocs > 2 {
			t.Errorf("%s: %g allocs/op on a warm handler, want at most 2", tc.name, allocs)
		}
	}
}

// TestHTTPConcurrentScratch drives every route from several goroutines
// at once, each request distinct, and requires each answer to be the
// one the reference handler gives for that request alone: a pooled
// scratch item shared by two in-flight requests would hand one of them
// the other's body. Run under -race it is also the pool's race test.
func TestHTTPConcurrentScratch(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	type call struct {
		path string
		body []byte
		want []byte
	}
	const workers, perWorker = 4, 100
	calls := make([][]call, workers)
	ref := referenceHandler(s)
	for w := range calls {
		for i := 0; i < perWorker; i++ {
			primary, mix := 1+(i+w)%5, []int{1 + i%5, 1 + (i/5+w)%5}[:1+(i+w)%2]
			var c call
			switch i % 4 {
			case 0:
				c.path, c.body = "/v1/predict", mustJSON(t, PredictRequest{Primary: primary, Concurrent: mix})
			case 1:
				c.path, c.body = "/v1/predict", mustJSON(t, PredictRequest{Primary: primary, Concurrent: mix, Explain: true})
			case 2:
				mixes := make([][]int, 1+(i+w)%7)
				for j := range mixes {
					mixes[j] = []int{1 + (i+j)%5}
				}
				c.path, c.body = "/v1/predict_batch", mustJSON(t, BatchRequest{Primary: primary, Mixes: mixes})
			default:
				c.path, c.body = "/v1/feedback", mustJSON(t, FeedbackRequest{Primary: primary, Concurrent: mix, Observed: float64(100 + i + w)})
			}
			rec := serveRecorded(ref, c.path, c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("reference %s %s: %d %s", c.path, c.body, rec.Code, rec.Body)
			}
			c.want = rec.Body.Bytes()
			calls[w] = append(calls[w], c)
		}
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for w := range calls {
		wg.Add(1)
		go func(calls []call) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, c := range calls {
					rec := serveRecorded(h, c.path, c.body)
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), c.want) {
						t.Errorf("%s %s: %d %s, want %s", c.path, c.body, rec.Code, rec.Body, c.want)
						return
					}
				}
			}
		}(calls[w])
	}
	wg.Wait()
}

// benchmarkHTTPHandler serves one body through the in-memory handler
// with the Metrics observer installed as contender-serve installs it.
func benchmarkHTTPHandler(b *testing.B, path string, body any) {
	m := obs.NewMetrics()
	p := trainedPredictor(b).WithHooks(obs.Isolate(m), nil)
	sh, err := core.NewSharded(p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(sh, Config{Observer: obs.Isolate(m)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	fx := newHTTPFixture(s.Handler(), path, mustJSON(b, body))
	fx.serve()
	if fx.rec.code != http.StatusOK {
		b.Fatalf("status %d: %s", fx.rec.code, fx.rec.body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.serve()
	}
}

func BenchmarkHTTPHandlerPredict(b *testing.B) {
	benchmarkHTTPHandler(b, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2, 3}})
}

func BenchmarkHTTPHandlerBatch16(b *testing.B) {
	mixes := make([][]int, 16)
	for i := range mixes {
		mixes[i] = []int{1 + i%5, 1 + (i/5)%5}[:1+i%2]
	}
	benchmarkHTTPHandler(b, "/v1/predict_batch", BatchRequest{Primary: 1, Mixes: mixes})
}
