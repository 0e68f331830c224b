package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"contender/internal/core"
	"contender/internal/obs"
)

// TestHTTPPredictExplain covers the opt-in explain flag on the JSON
// front: the prediction stays bit-identical to a non-explain request,
// the per-neighbor breakdown matches core.PredictExplain, and every
// explained prediction feeds the blame matrix.
func TestHTTPPredictExplain(t *testing.T) {
	blame := obs.NewBlame(obs.BlameConfig{})
	s, p, _ := testServer(t, Config{Blame: blame})
	h := s.Handler()

	mix := []int{2, 3}
	w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: mix, Explain: true})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	var resp PredictResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	var buf core.ExplainBuffer
	want, err := p.PredictExplain(&buf, 1, mix)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prediction != want {
		t.Errorf("explained prediction %g, want %g", resp.Prediction, want)
	}
	if resp.Explain == nil {
		t.Fatal("explain requested but response carries no breakdown")
	}
	if resp.Explain.Baseline != buf.Baseline || resp.Explain.CQI != buf.CQI {
		t.Errorf("breakdown baseline/cqi = %g/%g, want %g/%g",
			resp.Explain.Baseline, resp.Explain.CQI, buf.Baseline, buf.CQI)
	}
	if len(resp.Explain.Neighbors) != len(mix) || len(resp.Explain.Seconds) != len(mix) {
		t.Fatalf("breakdown lengths = %d/%d, want %d", len(resp.Explain.Neighbors), len(resp.Explain.Seconds), len(mix))
	}
	for i := range mix {
		if resp.Explain.Neighbors[i] != buf.Neighbors[i] || resp.Explain.Seconds[i] != buf.Seconds[i] {
			t.Errorf("breakdown[%d] = (%d, %g), want (%d, %g)",
				i, resp.Explain.Neighbors[i], resp.Explain.Seconds[i], buf.Neighbors[i], buf.Seconds[i])
		}
	}

	// The explained prediction is bit-identical to the plain one.
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: mix})
	if w.Code != http.StatusOK {
		t.Fatalf("plain predict status %d: %s", w.Code, data)
	}
	var plain PredictResponse
	if err := json.Unmarshal(data, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Prediction != resp.Prediction {
		t.Errorf("plain prediction %g differs from explained %g", plain.Prediction, resp.Prediction)
	}
	if plain.Explain != nil {
		t.Error("non-explain response carries a breakdown")
	}
	if bytes.Contains(data, []byte("explain")) {
		t.Errorf("non-explain response body mentions explain: %s", data)
	}

	// Exactly the explained prediction fed the blame matrix.
	if n := blame.Samples(); n != 1 {
		t.Errorf("blame samples = %d, want 1", n)
	}
	rep := blame.Report()
	if len(rep.Pairs) != 2 {
		t.Fatalf("blame pairs = %+v, want (1,2) and (1,3)", rep.Pairs)
	}
	for i, nb := range mix {
		pair := rep.Pairs[i]
		if pair.Primary != 1 || pair.Neighbor != nb || pair.Seconds != buf.Seconds[i] {
			t.Errorf("blame pair[%d] = %+v, want primary 1 neighbor %d seconds %g", i, pair, nb, buf.Seconds[i])
		}
	}

	// Errors on the explain path keep their stable codes.
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{999}, Explain: true})
	wantCode(t, w, data, http.StatusNotFound, "unknown_template")
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Explain: true})
	wantCode(t, w, data, http.StatusBadRequest, "empty_mix")
}

// TestBinaryPredictExplain covers the FlagExplain bit on the binary
// front: extended success payload on OpPredict, bad-request on any
// other opcode, and plain predicts untouched on the same connection.
func TestBinaryPredictExplain(t *testing.T) {
	blame := obs.NewBlame(obs.BlameConfig{})
	_, p, addr := testServer(t, Config{Blame: blame})
	c := dialBinary(t, addr)

	mix := []int{2, 3}
	var buf core.ExplainBuffer
	want, err := p.PredictExplain(&buf, 1, mix)
	if err != nil {
		t.Fatal(err)
	}

	c.send(OpPredict|FlagExplain, 21, func(b []byte) []byte { return appendMix(b, 1, mix) })
	code, reqID, payload := c.recv()
	if code != CodeOK || reqID != 21 {
		t.Fatalf("explain predict: code %s reqID %d", code, reqID)
	}
	r := frameReader{b: payload}
	if got := r.f64(); got != want {
		t.Errorf("explained prediction %g, want %g", got, want)
	}
	if got := r.f64(); got != buf.Baseline {
		t.Errorf("baseline %g, want %g", got, buf.Baseline)
	}
	if got := r.f64(); got != buf.CQI {
		t.Errorf("cqi %g, want %g", got, buf.CQI)
	}
	if k := int(r.u16()); k != len(mix) {
		t.Fatalf("breakdown k = %d, want %d", k, len(mix))
	}
	for i := range mix {
		if nb := int(r.u32()); nb != buf.Neighbors[i] {
			t.Errorf("neighbor[%d] = %d, want %d", i, nb, buf.Neighbors[i])
		}
		if sec := r.f64(); sec != buf.Seconds[i] {
			t.Errorf("seconds[%d] = %g, want %g", i, sec, buf.Seconds[i])
		}
	}
	if !r.done() {
		t.Error("trailing bytes in explain response")
	}
	if n := blame.Samples(); n != 1 {
		t.Errorf("blame samples = %d, want 1", n)
	}

	// A plain predict on the same connection answers the classic
	// payload, bit-identical to the explained prediction.
	c.send(OpPredict, 22, func(b []byte) []byte { return appendMix(b, 1, mix) })
	code, reqID, payload = c.recv()
	if code != CodeOK || reqID != 22 {
		t.Fatalf("plain predict: code %s reqID %d", code, reqID)
	}
	r = frameReader{b: payload}
	if got := r.f64(); got != want || !r.done() {
		t.Errorf("plain predict %g (done %v), want %g", got, r.done(), want)
	}

	// The flag is only defined for OpPredict.
	c.send(OpBatch|FlagExplain, 23, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint16(b, 1)
		b = binary.LittleEndian.AppendUint16(b, 1)
		return binary.LittleEndian.AppendUint32(b, 2)
	})
	code, reqID, _ = c.recv()
	if code != CodeBadRequest || reqID != 23 {
		t.Fatalf("explain flag on batch: code %s reqID %d", code, reqID)
	}

	// Connection survives the rejected flag.
	c.send(OpPredict, 24, func(b []byte) []byte { return appendMix(b, 1, mix) })
	if code, _, _ = c.recv(); code != CodeOK {
		t.Fatalf("post-error predict: code %s", code)
	}
}

// TestServeSlowLog pins the SlowLog as the server's observer: requests
// slower than the threshold produce a serve.request line; a generous
// threshold keeps the log silent.
func TestServeSlowLog(t *testing.T) {
	var logged bytes.Buffer
	s, _, _ := testServer(t, Config{Observer: obs.Isolate(obs.NewSlowLog(&logged, 0))}) // threshold 0: log everything
	h := s.Handler()

	w, data := postJSON(t, h, "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	out := logged.String()
	if !strings.Contains(out, "SLOW serve.request") || !strings.Contains(out, "key=predict") {
		t.Errorf("slow log missing serve.request line:\n%s", out)
	}
	// Errors travel on the same line, labeled.
	logged.Reset()
	w, data = postJSON(t, h, "/v1/predict", PredictRequest{Primary: 999, Concurrent: []int{2}})
	wantCode(t, w, data, http.StatusNotFound, "unknown_template")
	if out := logged.String(); !strings.Contains(out, "err=") {
		t.Errorf("slow log line for a failed request carries no err label:\n%s", out)
	}

	var quiet bytes.Buffer
	s2, _, addr := testServer(t, Config{Observer: obs.Isolate(obs.NewSlowLog(&quiet, time.Hour))})
	w, data = postJSON(t, s2.Handler(), "/v1/predict", PredictRequest{Primary: 1, Concurrent: []int{2}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, data)
	}
	// The binary front reports through the same log.
	c := dialBinary(t, addr)
	c.send(OpPredict, 1, func(b []byte) []byte { return appendMix(b, 1, []int{2}) })
	if code, _, _ := c.recv(); code != CodeOK {
		t.Fatal("binary predict failed")
	}
	if quiet.Len() != 0 {
		t.Errorf("sub-threshold requests were logged:\n%s", quiet.String())
	}
}
