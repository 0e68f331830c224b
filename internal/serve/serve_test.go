package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/allocs"
	"contender/internal/core"
	"contender/internal/obs"
)

// trainedPredictor builds a compact trained predictor (templates 1..5,
// MPLs 2 and 3) whose observations follow per-template ground-truth QS
// models, mirroring the core test fixture through the public API.
func trainedPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	templates := []struct {
		id    int
		lmin  float64
		p     float64
		scans []string
	}{
		{1, 200, 0.8, []string{"F"}},
		{2, 400, 0.9, []string{"F", "G"}},
		{3, 100, 1.0, []string{"G"}},
		{4, 300, 0.5, nil},
		{5, 500, 0.95, []string{"F"}},
	}
	var stats []core.TemplateStats
	for _, tpl := range templates {
		scans := make(map[string]bool)
		for _, f := range tpl.scans {
			scans[f] = true
		}
		stats = append(stats, core.TemplateStats{
			ID: tpl.id, IsolatedLatency: tpl.lmin, IOFraction: tpl.p,
			Scans: scans,
			SpoilerLatency: map[int]float64{
				2: tpl.lmin * 2.2,
				3: tpl.lmin * 3.4,
			},
		})
	}
	k := core.NewKnowledge(map[string]float64{"F": 100, "G": 50}, stats)
	qsFor := func(id int) core.QSModel {
		return core.QSModel{Mu: 0.5 + 0.05*float64(id), B: 0.1 + 0.01*float64(id)}
	}
	var observations []core.Observation
	ids := k.IDs()
	for _, primary := range ids {
		cont2, _ := k.ContinuumFor(primary, 2)
		cont3, _ := k.ContinuumFor(primary, 3)
		for _, c1 := range ids {
			r, err := k.CQI(primary, []int{c1})
			if err != nil {
				t.Fatal(err)
			}
			observations = append(observations, core.Observation{
				Primary: primary, Concurrent: []int{c1},
				Latency: cont2.Latency(qsFor(primary).Point(r)),
			})
			for _, c2 := range ids {
				if c2 < c1 {
					continue
				}
				r3, err := k.CQI(primary, []int{c1, c2})
				if err != nil {
					t.Fatal(err)
				}
				observations = append(observations, core.Observation{
					Primary: primary, Concurrent: []int{c1, c2},
					Latency: cont3.Latency(qsFor(primary).Point(r3)),
				})
			}
		}
	}
	p, err := core.Train(k, observations, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testServer spins up a full server (both fronts) over a fresh trained
// predictor and tears it down with the test.
func testServer(t testing.TB, cfg Config) (*Server, *core.Predictor, string) {
	t.Helper()
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, cfg)
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
	return s, p, addr
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	data, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w, data
}

func wantCode(t *testing.T, w *httptest.ResponseRecorder, data []byte, status int, code string) WireError {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, data)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error envelope: %v (body %s)", err, data)
	}
	if env.Error.Code != code {
		t.Fatalf("code = %q, want %q (message %q)", env.Error.Code, code, env.Error.Message)
	}
	return env.Error
}

func TestHTTPPredictMatchesCore(t *testing.T) {
	s, p, _ := testServer(t, Config{})
	h := s.Handler()

	mix := []int{2, 3}
	w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: mix})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	want, err := p.PredictKnown(1, mix)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Prediction != want {
		t.Errorf("prediction %g != PredictKnown %g", pr.Prediction, want)
	}

	mixes := [][]int{{2}, {2, 3}, {4, 5}}
	w, data = postJSON(t, h, "/v1/predict_batch", BatchRequest{Primary: 1, Mixes: mixes})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	for i, mix := range mixes {
		want, err := p.PredictKnown(1, mix)
		if err != nil {
			t.Fatal(err)
		}
		if br.Predictions[i] != want {
			t.Errorf("batch[%d] = %g, want %g", i, br.Predictions[i], want)
		}
	}

	w, data = postJSON(t, h, "/v1/feedback", FeedbackRequest{Primary: 1, Concurrent: mix, Observed: want * 1.1})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Predicted != want {
		t.Errorf("feedback predicted %g, want %g", fr.Predicted, want)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	s, _, _ := testServer(t, Config{MaxBatch: 4})
	h := s.Handler()

	// Malformed JSON.
	w, data := postJSON(t, h, "/v1/predict", `{"primary": nope}`)
	wantCode(t, w, data, http.StatusBadRequest, "bad_request")

	// Wrong method.
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	wantCode(t, rec, body, http.StatusBadRequest, "bad_request")

	// Unknown template.
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 999, Concurrent: []int{2}})
	wantCode(t, w, data, http.StatusNotFound, "unknown_template")

	// Empty mix.
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1})
	wantCode(t, w, data, http.StatusBadRequest, "empty_mix")

	// Untrained MPL (fixture trains MPL 2 and 3 only).
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2, 3, 4, 5}})
	wantCode(t, w, data, http.StatusUnprocessableEntity, "untrained_mpl")

	// Oversized batch (MaxBatch = 4).
	w, data = postJSON(t, h, "/v1/predict_batch", BatchRequest{
		Primary: 1, Mixes: [][]int{{2}, {2}, {2}, {2}, {2}},
	})
	wantCode(t, w, data, http.StatusRequestEntityTooLarge, "batch_too_large")

	// Bad observation.
	w, data = postJSON(t, h, "/v1/feedback", FeedbackRequest{Primary: 1, Concurrent: []int{2}, Observed: -1})
	wantCode(t, w, data, http.StatusBadRequest, "bad_observation")
}

// TestHTTPRouting pins the HTTP front's routes: a path outside the
// three v1 routes answers 404, and a v1 route refuses any method but
// POST with bad_request and Allow: POST.
func TestHTTPRouting(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	h := s.Handler()
	w, _ := postJSON(t, h, "/v1/x", `{}`)
	if w.Code != http.StatusNotFound {
		t.Errorf("POST /v1/x: status %d, want 404", w.Code)
	}
	for _, path := range []string{"/v1/predict", "/v1/predict_batch", "/v1/feedback"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		wantCode(t, rec, body, http.StatusBadRequest, "bad_request")
		if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s: Allow %q, want POST", path, allow)
		}
	}
}

// TestSubnormalFeedbackRefused pins that an observed latency whose
// relative error overflows is refused as bad_observation on both
// fronts, never answered with a non-finite signed error (binary) or an
// empty 200 (HTTP).
func TestSubnormalFeedbackRefused(t *testing.T) {
	s, _, addr := testServer(t, Config{})
	c := dialBinary(t, addr)
	c.send(OpFeedback, 9, func(b []byte) []byte {
		return appendF64(appendMix(b, 1, []int{2}), math.SmallestNonzeroFloat64)
	})
	if code, id, payload := c.recv(); code != CodeBadObservation || id != 9 {
		t.Errorf("binary feedback: status %s id %d payload %q, want bad_observation id 9", code, id, payload)
	}

	w, data := postJSON(t, s.Handler(), "/v1/feedback", `{"primary":1,"concurrent":[2],"observed":5e-324}`)
	wantCode(t, w, data, http.StatusBadRequest, "bad_observation")
}

// TestHTTPBatchNoPartialResults pins the truncation contract: a batch
// failing on mix i returns the error envelope only — no partial
// predictions — matching PredictBuffer.Results() after a failed
// PredictBatch.
func TestHTTPBatchNoPartialResults(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	h := s.Handler()
	w, data := postJSON(t, h, "/v1/predict_batch", BatchRequest{
		Primary: 1, Mixes: [][]int{{2}, {999}, {3}},
	})
	we := wantCode(t, w, data, http.StatusNotFound, "unknown_template")
	if !strings.Contains(we.Message, "batch mix 1") {
		t.Errorf("message %q does not name the failing mix", we.Message)
	}
	if strings.Contains(string(data), "predictions") {
		t.Errorf("error body carries partial results: %s", data)
	}
}

// binaryConn is a minimal test client for the binary protocol.
type binaryConn struct {
	t    *testing.T
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
}

func dialBinary(t *testing.T, addr string) *binaryConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &binaryConn{t: t, conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

func (c *binaryConn) send(op uint8, reqID uint32, payload func(b []byte) []byte) {
	c.t.Helper()
	if _, err := c.bw.Write(frame(op, reqID, payload)); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads one response frame, returning (status code, reqID, payload).
func (c *binaryConn) recv() (Code, uint32, []byte) {
	c.t.Helper()
	var header [4]byte
	if _, err := io.ReadFull(c.br, header[:]); err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	n := int(binary.LittleEndian.Uint32(header[:]))
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		c.t.Fatalf("read payload: %v", err)
	}
	if payload[0] != Version {
		c.t.Fatalf("response version %d", payload[0])
	}
	return Code(payload[1]), binary.LittleEndian.Uint32(payload[2:6]), payload[frameHeaderSize:]
}

// frame builds one request frame.
func frame(op uint8, reqID uint32, payload func(b []byte) []byte) []byte {
	buf, lenOff := appendFrameHeader(nil, op, reqID)
	buf = payload(buf)
	patchFrameLen(buf, lenOff)
	return buf
}

func appendMix(b []byte, primary int, mix []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(primary))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(mix)))
	for _, t := range mix {
		b = binary.LittleEndian.AppendUint32(b, uint32(t))
	}
	return b
}

// appendBatch appends an OpBatch payload: the primary, then each mix.
func appendBatch(b []byte, primary int, mixes [][]int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(primary))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(mixes)))
	for _, mix := range mixes {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(mix)))
		for _, t := range mix {
			b = binary.LittleEndian.AppendUint32(b, uint32(t))
		}
	}
	return b
}

func TestBinaryProtocol(t *testing.T) {
	_, p, addr := testServer(t, Config{})
	c := dialBinary(t, addr)

	// Predict.
	mix := []int{2, 3}
	c.send(OpPredict, 7, func(b []byte) []byte { return appendMix(b, 1, mix) })
	code, reqID, payload := c.recv()
	if code != CodeOK || reqID != 7 {
		t.Fatalf("predict: code %s reqID %d", code, reqID)
	}
	r := frameReader{b: payload}
	got := r.f64()
	want, err := p.PredictKnown(1, mix)
	if err != nil {
		t.Fatal(err)
	}
	if !r.done() || got != want {
		t.Errorf("predict %g, want %g", got, want)
	}

	// Batch.
	mixes := [][]int{{2}, {4, 5}}
	c.send(OpBatch, 8, func(b []byte) []byte { return appendBatch(b, 1, mixes) })
	code, reqID, payload = c.recv()
	if code != CodeOK || reqID != 8 {
		t.Fatalf("batch: code %s reqID %d", code, reqID)
	}
	r = frameReader{b: payload}
	if m := int(r.u16()); m != len(mixes) {
		t.Fatalf("batch size %d, want %d", m, len(mixes))
	}
	for i, mix := range mixes {
		want, err := p.PredictKnown(1, mix)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.f64(); got != want {
			t.Errorf("batch[%d] = %g, want %g", i, got, want)
		}
	}
	if !r.done() {
		t.Error("trailing bytes in batch response")
	}

	// Feedback.
	c.send(OpFeedback, 9, func(b []byte) []byte {
		return appendF64(appendMix(b, 1, mix), want*1.2)
	})
	code, reqID, payload = c.recv()
	if code != CodeOK || reqID != 9 {
		t.Fatalf("feedback: code %s reqID %d", code, reqID)
	}
	r = frameReader{b: payload}
	if predicted := r.f64(); predicted != want {
		t.Errorf("feedback predicted %g, want %g", predicted, want)
	}
	_ = r.f64() // signed error
	if !r.done() {
		t.Error("trailing bytes in feedback response")
	}

	// Unknown template answers an error frame; the connection stays up.
	c.send(OpPredict, 10, func(b []byte) []byte { return appendMix(b, 999, mix) })
	code, reqID, payload = c.recv()
	if code != CodeUnknownTemplate || reqID != 10 {
		t.Fatalf("unknown template: code %s reqID %d", code, reqID)
	}
	r = frameReader{b: payload}
	msgLen := int(r.u16())
	if msgLen == 0 || r.err {
		t.Error("error frame carries no message")
	}

	// Unknown opcode: error frame, connection stays up.
	c.send(42, 11, func(b []byte) []byte { return b })
	code, reqID, _ = c.recv()
	if code != CodeBadRequest || reqID != 11 {
		t.Fatalf("bad opcode: code %s reqID %d", code, reqID)
	}

	// Still serving after the errors.
	c.send(OpPredict, 12, func(b []byte) []byte { return appendMix(b, 1, mix) })
	code, _, _ = c.recv()
	if code != CodeOK {
		t.Fatalf("post-error predict: code %s", code)
	}
}

func TestBinaryBadVersionClosesConn(t *testing.T) {
	_, _, addr := testServer(t, Config{})
	c := dialBinary(t, addr)
	buf, lenOff := appendFrameHeader(nil, OpPredict, 1)
	buf[lenOff+4] = 99 // stomp the version byte
	buf = appendMix(buf, 1, []int{2})
	patchFrameLen(buf, lenOff)
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	code, _, _ := c.recv()
	if code != CodeBadRequest {
		t.Fatalf("version mismatch answered %s", code)
	}
	// Server hangs up after a version error.
	var one [1]byte
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.conn.Read(one[:]); err == nil {
		t.Error("connection still open after version mismatch")
	}
}

func TestBinaryOversizedFrameRejected(t *testing.T) {
	_, _, addr := testServer(t, Config{})
	c := dialBinary(t, addr)
	var header [4]byte
	binary.LittleEndian.PutUint32(header[:], MaxFrame+1)
	if _, err := c.conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	code, _, _ := c.recv()
	if code != CodeBadRequest {
		t.Fatalf("oversized frame answered %s", code)
	}
}

// TestIdleBinaryConnsDontStarveHTTP pins the ownership rule: idle
// binary connections hold nothing another request waits for, and busy
// ones pipelining every opcode beside HTTP feedback never answer
// anything but success — no request waits on another for scratch.
func TestIdleBinaryConnsDontStarveHTTP(t *testing.T) {
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p)
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

	// Three connections each serve one frame and then sit idle, open.
	for i := 0; i < 3; i++ {
		c := dialBinary(t, addr)
		c.send(OpPredict, uint32(i), func(b []byte) []byte { return appendMix(b, 1, []int{2}) })
		if code, _, _ := c.recv(); code != CodeOK {
			t.Fatalf("conn %d predict: code %s", i, code)
		}
	}

	// HTTP succeeds past the idle connections.
	h := s.Handler()
	for i := 0; i < 3; i++ {
		w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
		if w.Code != http.StatusOK {
			t.Fatalf("http predict %d blocked by idle conns: %d %s", i, w.Code, data)
		}
	}

	// Busy connections pipeline predict, feedback, explain, and batch
	// frames, a round at a time, while HTTP feedback runs beside them.
	const busy, rounds = 3, 100
	ops := []struct {
		op      uint8
		payload func(b []byte) []byte
	}{
		{OpPredict, func(b []byte) []byte { return appendMix(b, 1, []int{2, 3}) }},
		{OpFeedback, func(b []byte) []byte { return appendF64(appendMix(b, 2, []int{4}), 900) }},
		{OpPredict | FlagExplain, func(b []byte) []byte { return appendMix(b, 3, []int{1, 5}) }},
		{OpBatch, func(b []byte) []byte {
			b = binary.LittleEndian.AppendUint32(b, 4)
			b = binary.LittleEndian.AppendUint16(b, 2)
			b = binary.LittleEndian.AppendUint16(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 2)
			b = binary.LittleEndian.AppendUint16(b, 2)
			b = binary.LittleEndian.AppendUint32(b, 1)
			return binary.LittleEndian.AppendUint32(b, 5)
		}},
	}
	conns := make([]net.Conn, busy)
	for i := range conns {
		conns[i] = dialBinary(t, addr).conn
	}
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
			var header [4]byte
			for round := 0; round < rounds; round++ {
				for k, o := range ops {
					frame, lenOff := appendFrameHeader(nil, o.op, uint32(k))
					frame = o.payload(frame)
					patchFrameLen(frame, lenOff)
					if _, err := bw.Write(frame); err != nil {
						t.Errorf("busy conn %d write: %v", i, err)
						return
					}
				}
				if err := bw.Flush(); err != nil {
					t.Errorf("busy conn %d flush: %v", i, err)
					return
				}
				for range ops {
					if _, err := io.ReadFull(br, header[:]); err != nil {
						t.Errorf("busy conn %d read: %v", i, err)
						return
					}
					payload := make([]byte, binary.LittleEndian.Uint32(header[:]))
					if _, err := io.ReadFull(br, payload); err != nil {
						t.Errorf("busy conn %d read: %v", i, err)
						return
					}
					if code, id := Code(payload[1]), binary.LittleEndian.Uint32(payload[2:6]); code != CodeOK {
						t.Errorf("busy conn %d round %d op %d: code %s", i, round, id, code)
						return
					}
				}
			}
		}(i, conn)
	}
	for i := 0; i < busy*rounds; i++ {
		w, data := postJSON(t, h, "/v1/feedback", FeedbackRequest{Primary: 1, Concurrent: []int{2}, Observed: 800})
		if w.Code != http.StatusOK {
			t.Fatalf("http feedback %d beside busy conns: %d %s", i, w.Code, data)
		}
	}
	wg.Wait()
}

// TestHTTPBodyTooLarge pins explicit over-limit rejection: a body past
// MaxFrame must answer bad_request naming the limit, never be silently
// truncated into a parseable prefix.
func TestHTTPBodyTooLarge(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	h := s.Handler()
	big := `{"primary":1,"concurrent":[` + strings.Repeat("2,", MaxFrame/2) + `2]}`
	if len(big) <= MaxFrame {
		t.Fatalf("fixture body too small: %d", len(big))
	}
	w, data := postJSON(t, h, "/v1/predict", big)
	we := wantCode(t, w, data, http.StatusBadRequest, "bad_request")
	if !strings.Contains(we.Message, "exceeds") {
		t.Errorf("message %q does not name the size limit", we.Message)
	}
}

// TestShutdownUnderLoad drains a server while HTTP requests hammer it:
// every response must be either a success (request caught the drain
// window) or the shutting-down overload — never a hang, never an
// internal error — and Shutdown itself must return promptly.
func TestShutdownUnderLoad(t *testing.T) {
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				body, _ := json.Marshal(PredictRequest{Primary: 1 + (i % 5), Concurrent: []int{1 + (w % 5)}})
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					return // shutdown reached this worker
				default:
					data, _ := io.ReadAll(rec.Result().Body)
					t.Errorf("worker %d req %d: %d %s", w, i, rec.Code, data)
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond) // let the hammer start
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
}

func TestAdmitterTokenBucket(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	a := newAdmitter(AdmissionConfig{Rate: 10, Burst: 2}, now)
	if !a.admit() || !a.admit() {
		t.Fatal("burst of 2 rejected")
	}
	a.release()
	a.release()
	if a.admit() {
		t.Fatal("empty bucket admitted")
	}
	clock = clock.Add(100 * time.Millisecond) // one token at 10/s
	if !a.admit() {
		t.Fatal("refilled token rejected")
	}
	a.release()
	if a.admit() {
		t.Fatal("second token minted from one refill")
	}
}

func TestAdmitterInflightCap(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxInflight: 2}, nil)
	if !a.admit() || !a.admit() {
		t.Fatal("capacity rejected")
	}
	if a.admit() {
		t.Fatal("over-cap request admitted")
	}
	a.release()
	if !a.admit() {
		t.Fatal("released slot not reusable")
	}
}

func TestHTTPOverload(t *testing.T) {
	clock := time.Unix(2000, 0)
	s, _, _ := testServer(t, Config{
		Admission: AdmissionConfig{Rate: 1, Burst: 1},
		Now:       func() time.Time { return clock },
	})
	h := s.Handler()
	w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
	if w.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", w.Code, data)
	}
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
	wantCode(t, w, data, http.StatusTooManyRequests, "overloaded")
	if !errors.Is(ErrOverloaded, ErrOverloaded) {
		t.Fatal("sentinel identity broken")
	}
}

// TestServeAcrossHotSwap hammers both protocols while the serving set
// hot-swaps snapshots; every response must be a well-formed success
// (both snapshots know the fixture templates). Run under -race this is
// the serving/swap interleaving test.
func TestServeAcrossHotSwap(t *testing.T) {
	s, _, addr := testServer(t, Config{})
	h := s.Handler()

	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p2 := trainedPredictor(t)
			if _, err := s.Sharded().Swap(p2); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body, _ := json.Marshal(PredictRequest{Primary: 1 + (i % 5), Concurrent: []int{1 + ((i + w) % 5)}})
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					data, _ := io.ReadAll(rec.Result().Body)
					t.Errorf("worker %d req %d: %d %s", w, i, rec.Code, data)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		bc := &binaryConn{t: t, conn: c, bw: bufio.NewWriter(c), br: bufio.NewReader(c)}
		for i := 0; i < 100; i++ {
			bc.send(OpPredict, uint32(i), func(b []byte) []byte {
				return appendMix(b, 1+(i%5), []int{1 + ((i + 2) % 5)})
			})
			code, _, _ := bc.recv()
			if code != CodeOK {
				t.Errorf("binary req %d: code %s", i, code)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	swapWG.Wait()
}

// TestFeedbackFoldsEverySample: each front folds a feedback sample
// into the quality aggregator before it answers, so once the last
// response has been read the aggregator holds every sample sent, with
// no drain and no wait. The binary case pipelines more frames on one
// connection than a shard's feedback ring used to hold (1,024).
func TestFeedbackFoldsEverySample(t *testing.T) {
	const n = 2000
	sample := func(i int) (int, []int, float64) { return 1 + i%5, []int{1 + (i/5)%5}, 100 + float64(i%97) }
	for _, tc := range []struct {
		front string
		send  func(t *testing.T, s *Server, addr string)
	}{
		{"binary", func(t *testing.T, _ *Server, addr string) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var frames []byte
			for i := 0; i < n; i++ {
				primary, mix, observed := sample(i)
				frames = append(frames, frame(OpFeedback, uint32(i), func(b []byte) []byte {
					return appendF64(appendMix(b, primary, mix), observed)
				})...)
			}
			// Write every frame before reading any answer; the writer runs
			// beside the reads so neither side's socket buffer can stall.
			werr := make(chan error, 1)
			go func() {
				_, err := conn.Write(frames)
				werr <- err
			}()
			c := &binaryConn{t: t, conn: conn, br: bufio.NewReader(conn)}
			for i := 0; i < n; i++ {
				if code, reqID, payload := c.recv(); code != CodeOK || reqID != uint32(i) {
					t.Fatalf("frame %d: code %s reqID %d (%q)", i, code, reqID, payload)
				}
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
		}},
		{"http", func(t *testing.T, s *Server, _ string) {
			h := s.Handler()
			for i := 0; i < n; i++ {
				primary, mix, observed := sample(i)
				w, data := postJSON(t, h, "/v1/feedback", FeedbackRequest{Primary: primary, Concurrent: mix, Observed: observed})
				if w.Code != http.StatusOK {
					t.Fatalf("request %d: %d %s", i, w.Code, data)
				}
			}
		}},
	} {
		t.Run(tc.front, func(t *testing.T) {
			q := obs.NewQuality(obs.DriftConfig{})
			p := trainedPredictor(t).WithHooks(obs.Sink{}, q)
			sh, err := core.NewSharded(p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(sh, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			addr, err := s.ListenBinary("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tc.send(t, s, addr)
			if got := q.Report().Samples; got != n {
				t.Errorf("quality report holds %d samples, want %d", got, n)
			}
			if got := feedbackTotal(q); got != n {
				t.Errorf("contender_quality_feedback_total sums to %d, want %d", got, n)
			}
		})
	}
}

// feedbackTotal sums contender_quality_feedback_total over templates.
func feedbackTotal(q *obs.Quality) int64 {
	var n int64
	for key, v := range q.Registry().Snapshot().Counters {
		if strings.HasPrefix(key, "contender_quality_feedback_total") {
			n += v
		}
	}
	return n
}

func TestShutdownIdempotentAndRejectsListen(t *testing.T) {
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ListenBinary("127.0.0.1:0"); err == nil {
		t.Fatal("ListenBinary accepted after Shutdown")
	}
}

func TestServeMetricsFamilies(t *testing.T) {
	m := obs.NewMetrics()
	s, _, _ := testServer(t, Config{Observer: obs.Isolate(m)})
	h := s.Handler()
	w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", w.Code, data)
	}
	postJSON(t, h, "/v1/predict", PredictRequest{Primary: 999, Concurrent: []int{2}})
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`contender_serve_requests_total{op="predict"} 2`,
		`contender_serve_errors_total{code="unknown_template"} 1`,
		"contender_serve_predictions_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// randomBatch encodes a batch payload of m seeded random mixes of 1 to
// maxLen concurrents over templates 1–5, and returns the mixes.
func randomBatch(m, maxLen int, seed int64) ([]byte, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	mixes := make([][]int, m)
	for i := range mixes {
		mixes[i] = make([]int, 1+rng.Intn(maxLen))
		for j := range mixes[i] {
			mixes[i][j] = 1 + rng.Intn(5)
		}
	}
	return appendBatch(nil, 1, mixes), mixes
}

// decodeBatch decodes a batch payload into st's arena the way
// handleFrame does, and reports whether it was well formed.
func (st *connState) decodeBatch(payload []byte) bool {
	r := frameReader{b: payload}
	_ = r.u32() // primary
	m := int(r.u16())
	return st.decodeMixes(&r, m) && r.done()
}

// TestDecodeMixesWarmAllocFree pins that a warm connection decodes a
// binary batch frame without allocating: mix IDs and mix views live in
// buffers the connection reuses across frames. A smaller frame after a
// larger one, with mixes longer than shortMix, must decode into the same
// buffers, with nothing left over.
func TestDecodeMixesWarmAllocFree(t *testing.T) {
	payload, mixes := randomBatch(256, 4, 1)
	st := &connState{}
	decode := func() {
		if !st.decodeBatch(payload) {
			t.Fatal("batch frame did not decode")
		}
	}
	decode() // warm the connection's buffers
	if n := allocs.Count(100, decode); n != 0 {
		t.Errorf("warm batch decode: %d allocations over 100 calls, want 0", n)
	}
	if !reflect.DeepEqual(st.mixes, mixes) {
		t.Errorf("decoded %v, want %v", st.mixes, mixes)
	}
	small, smallMixes := randomBatch(12, 9, 2)
	if n := allocs.Count(10, func() {
		if !st.decodeBatch(small) {
			t.Fatal("small batch frame did not decode")
		}
	}); n != 0 {
		t.Errorf("smaller batch after a larger one: %d allocations over 10 calls, want 0", n)
	}
	if !reflect.DeepEqual(st.mixes, smallMixes) {
		t.Errorf("decoded %v, want %v", st.mixes, smallMixes)
	}
}

// BenchmarkDecodeBatchFrame decodes a 256-mix batch frame of 1–4
// concurrents per mix on a warm connection.
func BenchmarkDecodeBatchFrame(b *testing.B) {
	payload, _ := randomBatch(256, 4, 1)
	st := &connState{}
	if !st.decodeBatch(payload) { // warm the connection's buffers
		b.Fatal("batch frame did not decode")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !st.decodeBatch(payload) {
			b.Fatal("batch frame did not decode")
		}
	}
}

// TestHandleFrameWarmAllocFree pins that a warm connection prices and
// frames every kind of request into its output buffer without
// allocating: predict, a 256-mix batch, explain, feedback, and an error
// reply (an overload rejection, whose error is a sentinel).
func TestHandleFrameWarmAllocFree(t *testing.T) {
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
	mixes := make([][]int, 256)
	for i := range mixes {
		mixes[i] = []int{1 + i%5, 1 + (i/5)%5}[:1+i%2]
	}
	mix := []int{2, 3}
	cases := []struct {
		name    string
		op      uint8
		payload []byte
		adm     *admitter
		code    Code
	}{
		{"predict", OpPredict, appendMix(nil, 1, mix), nil, CodeOK},
		{"batch", OpBatch, appendBatch(nil, 1, mixes), nil, CodeOK},
		{"explain", OpPredict | FlagExplain, appendMix(nil, 1, mix), nil, CodeOK},
		{"feedback", OpFeedback, appendF64(appendMix(nil, 1, mix), 500), nil, CodeOK},
		{"overload", OpPredict, appendMix(nil, 1, mix),
			newAdmitter(AdmissionConfig{Rate: 1, Burst: 1}, func() time.Time { return time.Unix(0, 0) }), CodeOverloaded},
	}
	for _, tc := range cases {
		st := &connState{srv: s, adm: tc.adm}
		if tc.adm != nil {
			tc.adm.admit() // spend the only token
		}
		handle := func() {
			st.out = st.out[:0]
			st.handleFrame(tc.op, 7, tc.payload)
		}
		handle() // warm the connection's buffers
		if code := Code(st.out[5]); code != tc.code {
			t.Fatalf("%s: answered %s, want %s", tc.name, code, tc.code)
		}
		if tc.code != CodeOK {
			// An error reply classifies its error with errors.Is, whose
			// type assertions fill the runtime's per-call-site caches,
			// allocating on about one miss in a thousand until the
			// error's types are cached: warm those caches too.
			for i := 0; i < 1<<16; i++ {
				handle()
			}
		}
		if n := allocs.Count(100, handle); n != 0 {
			t.Errorf("%s: %d allocations over 100 calls on a warm connection, want 0", tc.name, n)
		}
	}
}
