package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/core"
	"contender/internal/obs"
)

// trainedPredictor builds a compact trained predictor (templates 1..5,
// MPLs 2 and 3) whose observations follow per-template ground-truth QS
// models, mirroring the core test fixture through the public API.
func trainedPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	k := core.NewKnowledge()
	k.SetScanTime("F", 100)
	k.SetScanTime("G", 50)
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
	for _, tpl := range templates {
		scans := make(map[string]bool)
		for _, f := range tpl.scans {
			scans[f] = true
		}
		k.AddTemplate(core.TemplateStats{
			ID: tpl.id, IsolatedLatency: tpl.lmin, IOFraction: tpl.p,
			Scans: scans,
			SpoilerLatency: map[int]float64{
				2: tpl.lmin * 2.2,
				3: tpl.lmin * 3.4,
			},
		})
	}
	qsFor := func(id int) core.QSModel {
		return core.QSModel{Mu: 0.5 + 0.05*float64(id), B: 0.1 + 0.01*float64(id)}
	}
	var observations []core.Observation
	ids := k.IDs()
	for _, primary := range ids {
		cont2, _ := k.ContinuumFor(primary, 2)
		cont3, _ := k.ContinuumFor(primary, 3)
		for _, c1 := range ids {
			r := k.CQI(primary, []int{c1})
			observations = append(observations, core.Observation{
				Primary: primary, Concurrent: []int{c1},
				Latency: cont2.Latency(qsFor(primary).Point(r)),
			})
			for _, c2 := range ids {
				if c2 < c1 {
					continue
				}
				r3 := k.CQI(primary, []int{c1, c2})
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
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 2})
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
	buf, lenOff := appendFrameHeader(nil, op, reqID)
	buf = payload(buf)
	patchFrameLen(buf, lenOff)
	if _, err := c.bw.Write(buf); err != nil {
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

// TestIdleBinaryConnsDontStarveHTTP pins the ownership rule on a single
// shard, the configuration where every front shares one feedback ring:
// idle binary connections hold nothing another request waits for, and
// busy ones pipelining every opcode beside HTTP feedback never answer
// anything but success — no request waits on another for a shard.
func TestIdleBinaryConnsDontStarveHTTP(t *testing.T) {
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 1})
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
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 2})
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

// TestFeedbackDrainLoop verifies buffered feedback reaches the quality
// aggregator through the server's drain ticker.
func TestFeedbackDrainLoop(t *testing.T) {
	p := trainedPredictor(t)
	q := obs.NewQuality(obs.DriftConfig{})
	p.SetQuality(q)
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{DrainEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	h := s.Handler()
	want, err := p.PredictKnown(1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w, data := postJSON(t, h, "/v1/feedback", FeedbackRequest{Primary: 1, Concurrent: []int{2}, Observed: want * 1.1})
		if w.Code != http.StatusOK {
			t.Fatalf("feedback: %d %s", w.Code, data)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rep := q.Report(); rep.Samples >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain loop never folded feedback: %+v", q.Report())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShutdownIdempotentAndRejectsListen(t *testing.T) {
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 1})
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
	s, _, _ := testServer(t, Config{Metrics: m, Observer: m})
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

// TestDecodeMixesWarmAllocFree pins that a warm connection decodes a
// binary batch frame without allocating: mix IDs, mix views and their
// boundaries all live in buffers the connection reuses across frames.
func TestDecodeMixesWarmAllocFree(t *testing.T) {
	const m = 256
	var payload []byte
	for i := 0; i < m; i++ {
		mix := []int{1 + i%5, 1 + (i/5)%5}[:1+i%2]
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(mix)))
		for _, id := range mix {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(id))
		}
	}
	st := &connState{}
	decode := func() {
		r := frameReader{b: payload}
		if !st.decodeMixes(&r, m) || !r.done() {
			t.Fatal("batch frame did not decode")
		}
	}
	decode() // warm the connection's buffers
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("warm batch decode: %g allocs/op, want 0", allocs)
	}
	if len(st.mixes) != m || len(st.mixes[m-1]) != 2 || st.mixes[m-1][1] != 1+((m-1)/5)%5 {
		t.Errorf("decoded %d mixes, last %v", len(st.mixes), st.mixes[len(st.mixes)-1])
	}
}
