package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"contender/internal/core"
)

// FuzzDecodeFrame drives the binary frame decoders with arbitrary
// bytes. data[0] selects the opcode shape; the rest is the frame
// payload after the 10-byte header — exactly what handleFrame hands
// the decoders once the length prefix and version checks pass. The
// properties under test are the decoder's safety contract:
//
//   - no input panics;
//   - the cursor never leaves the payload (no out-of-bounds reads);
//   - every accepted decode respects the wire limits (MaxMix, batch
//     shape consistency between st.mixes and the backing arena).
//
// The checked-in corpus under testdata/fuzz/FuzzDecodeFrame seeds one
// well-formed frame per opcode plus truncated and limit-probing
// shapes; CI runs a short -fuzztime smoke on top of the corpus.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed predict: primary=1, k=2, mix {2, 3}.
	f.Add([]byte("\x01\x01\x00\x00\x00\x02\x00\x02\x00\x00\x00\x03\x00\x00\x00"))
	// Well-formed batch: primary=1, m=2, mixes {5} and {}.
	f.Add([]byte("\x02\x01\x00\x00\x00\x02\x00\x01\x00\x05\x00\x00\x00\x00\x00"))
	// Well-formed feedback: primary=1, k=1, mix {2}, observed=1.5.
	f.Add([]byte("\x03\x01\x00\x00\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf8\x3f"))
	// Truncated predict: cut mid-primary.
	f.Add([]byte("\x01\x01"))
	// Oversized mix count: k=0xffff > MaxMix must be rejected.
	f.Add([]byte("\x01\x01\x00\x00\x00\xff\xff"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		op, payload := data[0], data[1:]
		st := &connState{}
		switch op {
		case OpPredict:
			r := frameReader{b: payload}
			_, mix := st.decodeMix(&r)
			if r.off > len(r.b) {
				t.Fatalf("predict cursor left the payload: off %d > len %d", r.off, len(r.b))
			}
			if r.done() && len(mix) > MaxMix {
				t.Fatalf("accepted predict mix of %d concurrent templates > MaxMix %d", len(mix), MaxMix)
			}
		case OpBatch:
			r := frameReader{b: payload}
			_ = r.u32() // primary
			m := int(r.u16())
			if m > 4096 {
				return // handleFrame rejects m > cfg.MaxBatch before decoding
			}
			ok := st.decodeMixes(&r, m)
			if r.off > len(r.b) {
				t.Fatalf("batch cursor left the payload: off %d > len %d", r.off, len(r.b))
			}
			if !ok || !r.done() {
				return
			}
			if len(st.mixes) != m {
				t.Fatalf("accepted batch decoded %d mixes, header said %d", len(st.mixes), m)
			}
			total := 0
			for _, mix := range st.mixes {
				if len(mix) > MaxMix {
					t.Fatalf("accepted batch mix of %d concurrent templates > MaxMix %d", len(mix), MaxMix)
				}
				total += len(mix)
			}
			if total != len(st.mixArea) {
				t.Fatalf("mix views cover %d ints but arena holds %d", total, len(st.mixArea))
			}
		case OpFeedback:
			r := frameReader{b: payload}
			st.decodeMix(&r)
			_ = r.f64()
			if r.off > len(r.b) {
				t.Fatalf("feedback cursor left the payload: off %d > len %d", r.off, len(r.b))
			}
		}
	})
}

// referenceHandler is the HTTP front as it was before the strict
// scanner: encoding/json decodes every body into the v1 request struct
// and json.NewEncoder renders every response. FuzzHTTPBody holds the
// served handler to it byte for byte.
func referenceHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		refHandleJSON(s, w, r, "predict", func(body []byte) (any, int, error) {
			var req PredictRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if req.Explain {
				var eb core.ExplainBuffer
				if _, err := s.sh.Snapshot().PredictExplain(&eb, req.Primary, req.Concurrent); err != nil {
					return nil, 0, err
				}
				s.cfg.Blame.Observe(req.Primary, eb.Neighbors, eb.Seconds)
				return PredictResponse{
					Prediction: eb.Total,
					Explain: &ExplainBreakdown{
						Baseline:  eb.Baseline,
						CQI:       eb.CQI,
						Neighbors: eb.Neighbors,
						Seconds:   eb.Seconds,
					},
				}, 1, nil
			}
			v, err := s.sh.Snapshot().PredictKnown(req.Primary, req.Concurrent)
			if err != nil {
				return nil, 0, err
			}
			return PredictResponse{Prediction: v}, 1, nil
		})
	})
	mux.HandleFunc("/v1/predict_batch", func(w http.ResponseWriter, r *http.Request) {
		refHandleJSON(s, w, r, "predict_batch", func(body []byte) (any, int, error) {
			var req BatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if len(req.Mixes) > s.cfg.MaxBatch {
				return nil, 0, fmt.Errorf("%w: %d mixes > max %d", ErrBatchTooLarge, len(req.Mixes), s.cfg.MaxBatch)
			}
			var buf core.PredictBuffer
			out, err := s.sh.Snapshot().PredictBatch(&buf, req.Primary, req.Mixes)
			if err != nil {
				return nil, 0, err
			}
			return BatchResponse{Predictions: out}, len(out), nil
		})
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		refHandleJSON(s, w, r, "feedback", func(body []byte) (any, int, error) {
			var req FeedbackRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			res, err := s.sh.Acquire().Observe(req.Primary, req.Concurrent, req.Observed)
			if err != nil {
				return nil, 0, err
			}
			return FeedbackResponse{Predicted: res.Predicted, SignedError: res.SignedError}, 0, nil
		})
	})
	return mux
}

// refHandleJSON is referenceHandler's shared plumbing: method check,
// admission, body read, dispatch, envelope rendering, observation.
func refHandleJSON(s *Server, w http.ResponseWriter, r *http.Request, op string, fn func(body []byte) (any, int, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, fmt.Errorf("%w: method %s", ErrBadRequest, r.Method))
		return
	}
	if s.httpA != nil && !s.httpA.admit() {
		s.overloaded(op)
		writeJSONError(w, ErrOverloaded)
		return
	}
	if s.httpA != nil {
		defer s.httpA.release()
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrame+1))
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %v", ErrBadRequest, err)
	case len(body) > MaxFrame:
		err = fmt.Errorf("%w: request body exceeds %d bytes", ErrBadRequest, MaxFrame)
	}
	var resp any
	var n int
	if err == nil {
		resp, n, err = fn(body)
	}
	s.observeRequest(op, n, 0, err)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// FuzzHTTPBody drives all three HTTP routes with arbitrary bodies and
// holds the served handler to referenceHandler: status, Content-Type
// and body must be byte-identical. The one sanctioned difference is a
// response float JSON cannot carry, which the reference answers with
// an empty 200 and the served handler with the internal envelope. No
// input may panic either handler.
//
// The checked-in corpus under testdata/fuzz/FuzzHTTPBody seeds
// canonical bodies of every route and the shapes the strict scanner
// must leave to encoding/json: whitespace, reordered, duplicate and
// case-folded keys, 1e2, 1.0, -0, ints past int64, null, [], escaped
// keys and trailing garbage. CI runs a short -fuzztime smoke on top.
func FuzzHTTPBody(f *testing.F) {
	f.Add([]byte(`{"primary":1,"concurrent":[2,3]}`))
	f.Add([]byte(`{"primary":1,"mixes":[[2],[2,3],[4,5]]}`))
	f.Add([]byte(`{"primary":1,"concurrent":[2],"observed":512.5}`))

	p := trainedPredictor(f)
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(sh, Config{MaxBatch: 64, DrainEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	served, ref := s.Handler(), referenceHandler(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/predict", "/v1/predict_batch", "/v1/feedback"} {
			got := serveRecorded(served, path, body)
			want := serveRecorded(ref, path, body)
			if want.Code == http.StatusOK && want.Body.Len() == 0 {
				// The reference failed to encode a non-finite float.
				if got.Code != http.StatusInternalServerError || !bytes.Contains(got.Body.Bytes(), []byte(`"code":"internal"`)) {
					t.Fatalf("%s %q: non-finite response answered %d %s, want the internal envelope", path, body, got.Code, got.Body)
				}
				continue
			}
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s %q:\nserved    %d %q %s\nreference %d %q %s", path, body,
					got.Code, got.Header().Get("Content-Type"), got.Body,
					want.Code, want.Header().Get("Content-Type"), want.Body)
			}
		}
	})
}

// serveRecorded runs one POST with body through h.
func serveRecorded(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}
