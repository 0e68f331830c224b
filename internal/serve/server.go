package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"contender/internal/core"
	"contender/internal/obs"
	"contender/internal/resilience"
)

// Server is the network-facing prediction service: one core.Sharded
// snapshot behind both wire protocols. Construction is cheap; the
// server starts work when ListenBinary accepts connections or Handler
// is mounted on an HTTP mux. Shutdown drains in-flight requests under a
// deadline.
//
// Concurrency model:
//
//   - Each accepted binary connection is owned by one reader goroutine.
//     It prices each frame and frames the response into the
//     connection's output buffer, then writes that buffer to the socket
//     itself once no whole frame is left to read. Output of at least
//     handOffSize bytes (a batch response) goes instead to a writer
//     goroutine, started on the first such hand-off and kept until the
//     connection closes, so the reader prices the next frame while it is
//     sent. While the writer holds output, later responses queue behind
//     it: a connection answers in request order. The connection owns its
//     batch and explain scratch.
//   - Each HTTP request takes one httpScratch from a sync.Pool for its
//     whole life: body buffer, decoded mixes, pricing buffers and
//     response bytes. It owns that item alone until it puts it back
//     after its one Write, and an item grown past maxPooledScratch is
//     dropped instead.
//   - No request waits for scratch held by another connection.
//   - Feedback folds inline on the serving goroutine: both fronts call
//     the snapshot's Feedback, which folds the sample into the quality
//     aggregator before the response is framed. Nothing is buffered, so
//     nothing can be dropped; the aggregator's per-template tracker lock
//     is held only for the fold, never across I/O.
//   - Every request prices against one snapshot load. Untrusted mixes
//     need no separate validation pass: the core reports unknown
//     templates as core.ErrUnknownTemplate, which maps to the
//     unknown_template code.
//   - Snapshot hot-swaps (Sharded.Swap, the lifecycle loop) never block
//     serving: every prediction reads the atomic snapshot pointer, so a
//     request straddling a swap simply completes on the old model.
type Server struct {
	cfg   Config
	sh    *core.Sharded
	httpA *admitter // admission for the HTTP front

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	// connWg tracks serving work: accept loops, binary connections and
	// in-flight HTTP requests. Shutdown waits it out.
	connWg sync.WaitGroup

	met serveMetrics
}

// Config configures New. Zero values select the documented defaults.
type Config struct {
	// Observer receives serve.request spans and serve.* points (nil:
	// no observation; the wire layer stays clock-free).
	Observer obs.Observer
	// Metrics, when non-nil, registers the contender_serve_* families
	// on its registry and folds per-request counters into them.
	Metrics *obs.Metrics
	// Blame, when non-nil, receives the per-neighbor decomposition of
	// every explain-enabled prediction — the server's feed into the
	// pairwise blame matrix. Non-explain requests never touch it.
	Blame *obs.Blame
	// SlowLog, when non-nil, logs every request whose end-to-end
	// (admission → reply framing) latency meets the log's threshold. It
	// sees only the serve.request span, independent of Observer.
	SlowLog *obs.SlowLog
	// MaxBatch caps the mixes of one predict_batch request (default
	// 4096; CodeBatchTooLarge beyond it).
	MaxBatch int
	// Admission bounds each binary connection and the HTTP front as a
	// whole. The zero value admits everything.
	Admission AdmissionConfig
	// Now is the admission clock (default time.Now; injectable for
	// deterministic tests).
	Now func() time.Time
}

// serveMetrics is the contender_serve_* family set, nil-safe when no
// registry is attached.
type serveMetrics struct {
	requests    *obs.CounterVec // by op
	errors      *obs.CounterVec // by code
	predictions *obs.Counter
	overloads   *obs.Counter
	connections *obs.Counter

	// byOp holds requests.With(opName(op)) for each opcode, resolved
	// at the op's first request (slot 0 is "unknown").
	byOp [OpFeedback + 1]atomic.Pointer[obs.Counter]
}

// register attaches the family set to m's registry (a no-op for nil m).
func (sm *serveMetrics) register(m *obs.Metrics) {
	if m == nil {
		return
	}
	reg := m.Registry()
	sm.requests = reg.CounterVec("contender_serve_requests_total", "Wire requests by operation.", "op")
	sm.errors = reg.CounterVec("contender_serve_errors_total", "Wire errors by stable v1 code.", "code")
	sm.predictions = reg.Counter("contender_serve_predictions_total", "Predictions served across both protocols.")
	sm.overloads = reg.Counter("contender_serve_overload_total", "Requests rejected by admission control.")
	sm.connections = reg.Counter("contender_serve_connections_total", "Binary protocol connections accepted.")
}

// request returns op's request counter, resolving it on first use.
func (sm *serveMetrics) request(op uint8) *obs.Counter {
	slot := &sm.byOp[0]
	if int(op) < len(sm.byOp) {
		slot = &sm.byOp[op]
	}
	if c := slot.Load(); c != nil {
		return c
	}
	c := sm.requests.With(opName(op))
	slot.Store(c)
	return c
}

// New builds a server over a serving snapshot.
func New(sh *core.Sharded, cfg Config) (*Server, error) {
	if sh == nil {
		return nil, resilience.Permanent(errors.New("serve: New needs a serving snapshot"))
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	s := &Server{
		cfg:   cfg,
		sh:    sh,
		conns: map[net.Conn]struct{}{},
	}
	s.met.register(cfg.Metrics)
	if cfg.Admission.enabled() {
		s.httpA = newAdmitter(cfg.Admission, cfg.Now)
	}
	return s, nil
}

// Sharded returns the serving snapshot behind the server (for
// hot-swaps).
func (s *Server) Sharded() *core.Sharded { return s.sh }

// timed reports whether request handlers need wall-clock timing: either
// an observer wants the serve.request span or a slow log wants to judge
// the request's latency.
func (s *Server) timed() bool { return s.cfg.Observer != nil || s.cfg.SlowLog != nil }

// observeRequest emits the serve.request span for one request of
// opcode op and folds counters.
func (s *Server) observeRequest(op uint8, n int, dur time.Duration, err error) {
	if s.met.requests != nil {
		s.met.request(op).Inc()
		if err == nil {
			s.met.predictions.Add(int64(n))
		} else {
			s.met.errors.With(CodeFor(err).String()).Inc()
		}
	}
	if s.cfg.Observer != nil {
		obs.Emit(s.cfg.Observer, obs.Event{
			Kind:  obs.SpanEnd,
			Span:  obs.SpanServeRequest,
			Key:   opName(op),
			Value: float64(n),
			Dur:   dur,
			Err:   obs.ErrLabel(err),
		})
	}
	if s.cfg.SlowLog != nil {
		s.cfg.SlowLog.Event(obs.Event{
			Kind:  obs.SpanEnd,
			Span:  obs.SpanServeRequest,
			Key:   opName(op),
			Value: float64(n),
			Dur:   dur,
			Err:   obs.ErrLabel(err),
		})
	}
}

// overloaded counts one admission rejection.
func (s *Server) overloaded(op string) {
	if s.met.overloads != nil {
		s.met.overloads.Inc()
		s.met.errors.With(CodeOverloaded.String()).Inc()
	}
	obs.Emit(s.cfg.Observer, obs.Event{Kind: obs.Point, Span: obs.PointServeOverload, Key: op})
}

// ---------------------------------------------------------------------------
// HTTP/JSON front (v1).

// Handler returns the HTTP front: POST /v1/predict, /v1/predict_batch,
// /v1/feedback. Mount it beside /metrics (cliutil.ServeMetrics does)
// or on any mux.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// serveHTTP routes one request and runs the shared plumbing: method
// check, admission, answer, observation, one write of the body.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	var op, fields uint8
	switch r.URL.Path {
	case "/v1/predict":
		op, fields = OpPredict, predictFields
	case "/v1/predict_batch":
		op, fields = OpBatch, batchFields
	case "/v1/feedback":
		op, fields = OpFeedback, feedbackFields
	default:
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, fmt.Errorf("%w: method %s", ErrBadRequest, r.Method))
		return
	}
	// Register with connWg so Shutdown's drain window waits for this
	// request; a request arriving after Shutdown began is refused
	// (transient — retry another replica).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.overloaded(opName(op))
		writeJSONError(w, fmt.Errorf("%w: server shutting down", ErrOverloaded))
		return
	}
	s.connWg.Add(1)
	s.mu.Unlock()
	defer s.connWg.Done()
	if s.httpA != nil && !s.httpA.admit() {
		s.overloaded(opName(op))
		writeJSONError(w, ErrOverloaded)
		return
	}
	if s.httpA != nil {
		defer s.httpA.release()
	}
	var start time.Duration
	if s.timed() {
		start = obs.Mono()
	}
	sc := scratchPool.Get().(*httpScratch)
	defer sc.release()
	n, err := s.answer(sc, r.Body, fields)
	var dur time.Duration
	if s.timed() {
		dur = obs.Mono() - start
	}
	s.observeRequest(op, n, dur, err)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; nobody is left to tell.
	_, _ = w.Write(sc.out)
}

// answer reads, decodes and prices one request of the route whose
// fields are given, and frames the success body into sc.out. It
// returns the number of predictions served.
func (s *Server) answer(sc *httpScratch, body io.Reader, fields uint8) (int, error) {
	var err error
	sc.body, err = readBody(sc.body, body)
	switch {
	case err != nil:
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	case len(sc.body) > MaxFrame:
		return 0, fmt.Errorf("%w: request body exceeds %d bytes", ErrBadRequest, MaxFrame)
	}
	if err := sc.decode(sc.body, fields); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	req := &sc.req
	switch fields {
	case predictFields:
		if req.explain {
			// The prediction is bit-identical to the non-explain path by
			// construction: core.PredictExplain prices through
			// PredictKnown's body with a term sink.
			eb := &sc.ebuf
			if _, err := s.sh.Snapshot().PredictExplain(eb, req.primary, req.concurrent); err != nil {
				return 0, err
			}
			s.cfg.Blame.Observe(req.primary, eb.Neighbors, eb.Seconds)
			sc.out, err = appendPredictResponse(sc.out[:0], &PredictResponse{
				Prediction: eb.Total,
				Explain: &ExplainBreakdown{
					Baseline:  eb.Baseline,
					CQI:       eb.CQI,
					Neighbors: eb.Neighbors,
					Seconds:   eb.Seconds,
				},
			})
			return 1, err
		}
		v, err := s.sh.Snapshot().PredictKnown(req.primary, req.concurrent)
		if err != nil {
			return 0, err
		}
		sc.out, err = appendPredictResponse(sc.out[:0], &PredictResponse{Prediction: v})
		return 1, err
	case batchFields:
		if len(req.mixes) > s.cfg.MaxBatch {
			return 0, fmt.Errorf("%w: %d mixes > max %d", ErrBatchTooLarge, len(req.mixes), s.cfg.MaxBatch)
		}
		// Both protocol fronts price batches through core.PredictBatch,
		// which is what makes their payloads byte-identical for the
		// same request.
		out, err := s.sh.Snapshot().PredictBatch(&sc.pbuf, req.primary, req.mixes)
		if err != nil {
			return 0, err
		}
		// The v1 body of an empty batch is null. A warm pooled buffer
		// returns an empty non-nil slice, which would encode as [].
		if len(out) == 0 {
			out = nil
		}
		sc.out, err = appendBatchResponse(sc.out[:0], &BatchResponse{Predictions: out})
		return len(out), err
	default:
		res, err := s.sh.Snapshot().Feedback(req.primary, req.concurrent, req.observed)
		if err != nil {
			return 0, err
		}
		sc.out, err = appendFeedbackResponse(sc.out[:0], &FeedbackResponse{Predicted: res.Predicted, SignedError: res.SignedError})
		return 0, err
	}
}

// writeJSONError renders the v1 error envelope under the code's HTTP
// status.
func writeJSONError(w http.ResponseWriter, err error) {
	code := CodeFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code.HTTPStatus())
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: WireError{Code: code.String(), Message: err.Error()}})
}

// ---------------------------------------------------------------------------
// Binary front (v1).

// ListenBinary starts accepting binary-protocol connections on addr
// and returns the bound address (useful with ":0"). The accept loop
// runs on its own goroutine until Shutdown.
func (s *Server) ListenBinary(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: binary listener: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", resilience.Permanent(errors.New("serve: server is shut down"))
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.connWg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.connWg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.met.connections != nil {
			s.met.connections.Inc()
		}
		obs.Emit(s.cfg.Observer, obs.Event{Kind: obs.Point, Span: obs.PointServeConn})
		s.connWg.Add(1)
		go s.serveConn(conn)
	}
}

// handOffSize is the output, in bytes, at which the reader stops
// framing and hands what it holds to the connection's writer: about one
// 128-mix batch response. Output this large is worth pricing the next
// frame beside its send rather than behind it.
const handOffSize = 1 << 10

// maxPending bounds the output queued behind a busy writer. Past it a
// hand-off waits for the writer to drain, so a client that sends but
// never reads stalls its own connection instead of growing the queue.
const maxPending = 64 << 10

// connState is one binary connection's working set: its admission
// bucket, its pricing scratch, the decoded request and the framed
// responses. Everything but the write queue belongs to the reader
// goroutine.
type connState struct {
	srv  *Server
	conn net.Conn
	adm  *admitter
	pbuf core.PredictBuffer
	ebuf core.ExplainBuffer

	mixes   [][]int // decoded batch mixes, reused across frames
	mixArea []int   // backing storage for mixes, reused across frames

	out []byte // responses framed but not yet sent or handed off

	// The write queue, shared with the writer goroutine. Whoever set
	// busy owns the socket: while it is set, the reader appends to
	// pending instead of writing, so responses leave in request order.
	wmu     sync.Mutex
	pending []byte
	busy    bool
	werr    error         // first write error of the writer
	kick    chan struct{} // wakes the writer; nil until the first hand-off
	wwg     sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	st := &connState{srv: s, conn: conn}
	if s.cfg.Admission.enabled() {
		st.adm = newAdmitter(s.cfg.Admission, s.cfg.Now)
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	payload := make([]byte, 0, 512)
	var header [4]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			break // EOF or connection torn down
		}
		n := int(binary.LittleEndian.Uint32(header[:]))
		if n < frameHeaderSize || n > MaxFrame {
			// Unframeable garbage: answer once, then hang up — resync is
			// impossible on a corrupted length prefix.
			st.reply(0, fmt.Errorf("%w: frame length %d", ErrBadRequest, n))
			break
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		version, op, reqID := payload[0], payload[1], binary.LittleEndian.Uint32(payload[2:6])
		if version != Version {
			st.reply(reqID, fmt.Errorf("%w: version %d, want %d", ErrBadRequest, version, Version))
			break
		}
		st.handleFrame(op, reqID, payload[frameHeaderSize:])
		// Large output goes to the writer so the next frame prices beside
		// its send; small output waits for the frames already buffered,
		// so a pipelined burst leaves in one write.
		if large := len(st.out) >= handOffSize; large || !frameBuffered(br) {
			if st.send(large) != nil {
				break
			}
		}
	}
	if len(st.out) > 0 {
		_ = st.send(false) // the final error reply, if any
	}
	if st.kick != nil {
		close(st.kick)
		st.wwg.Wait()
	}
}

// frameBuffered reports whether br holds a whole next frame, so that
// framing it cannot block on the network.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	h, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.LittleEndian.Uint32(h))
}

// send passes the framed output on. When the writer is idle and
// handOff is false, the reader writes it to the socket itself;
// otherwise it joins the write queue and the writer, started on the
// first hand-off, sends it. It reports the connection's write error.
func (st *connState) send(handOff bool) error {
	st.wmu.Lock()
	if err := st.werr; err != nil {
		st.wmu.Unlock()
		return err
	}
	if !st.busy && !handOff {
		// The writer is idle and pending is empty: the socket is ours.
		st.wmu.Unlock()
		_, err := st.conn.Write(st.out)
		st.out = st.out[:0]
		return err
	}
	st.pending = append(st.pending, st.out...)
	st.out = st.out[:0]
	// An idle writer needs a kick. A full queue kicks too: the send
	// blocks while an earlier kick is still unconsumed, that is until
	// the writer has drained what it was given.
	kick := !st.busy || len(st.pending) >= maxPending
	st.busy = true
	st.wmu.Unlock()
	if kick {
		if st.kick == nil {
			st.kick = make(chan struct{}, 1)
			st.wwg.Add(1)
			go st.writeLoop()
		}
		st.kick <- struct{}{}
	}
	return nil
}

// writeLoop is the connection's writer. Each kick makes it drain the
// write queue: it takes everything pending, writes it in one call, and
// repeats until the queue is empty, then gives the socket back by
// clearing busy. It exits when the reader closes the kick channel.
func (st *connState) writeLoop() {
	defer st.wwg.Done()
	var spare []byte // the buffer of the previous write, reused as pending
	for range st.kick {
		for {
			st.wmu.Lock()
			buf := st.pending
			if len(buf) == 0 || st.werr != nil {
				st.busy = false
				st.wmu.Unlock()
				break
			}
			st.pending = spare[:0]
			st.wmu.Unlock()
			_, err := st.conn.Write(buf)
			spare = buf
			if err != nil {
				st.wmu.Lock()
				st.werr = err
				st.wmu.Unlock()
			}
		}
	}
}

// handleFrame decodes and executes one request frame. Malformed
// payloads answer with CodeBadRequest; the connection stays up (the
// length prefix was intact, so framing is still in sync).
func (st *connState) handleFrame(op uint8, reqID uint32, payload []byte) {
	s := st.srv
	// The opcode byte's high bit is the explain flag (v1 defines it for
	// OpPredict only); mask it off before dispatch so op names, metrics,
	// and the opcode switch see the plain opcode.
	explain := op&FlagExplain != 0
	op &^= FlagExplain
	if st.adm != nil && !st.adm.admit() {
		s.overloaded(opName(op))
		st.reply(reqID, ErrOverloaded)
		return
	}
	if st.adm != nil {
		defer st.adm.release()
	}
	var start time.Duration
	if s.timed() {
		start = obs.Mono()
	}
	var n int
	var err error
	r := frameReader{b: payload}
	if explain && op != OpPredict {
		err = fmt.Errorf("%w: explain flag on opcode %d", ErrBadRequest, op)
		s.observeRequest(op, 0, 0, err)
		st.reply(reqID, err)
		return
	}
	switch op {
	case OpPredict:
		primary, mix := st.decodeMix(&r)
		if !r.done() {
			err = fmt.Errorf("%w: malformed predict payload", ErrBadRequest)
			break
		}
		if explain {
			// The connection owns its explain buffer, so the reply
			// frames straight out of it with no copies.
			eb := &st.ebuf
			if _, err = s.sh.Snapshot().PredictExplain(eb, primary, mix); err == nil {
				n = 1
				s.cfg.Blame.Observe(primary, eb.Neighbors, eb.Seconds)
				st.replyOK(reqID, func(b []byte) []byte {
					b = appendF64(b, eb.Total)
					b = appendF64(b, eb.Baseline)
					b = appendF64(b, eb.CQI)
					b = binary.LittleEndian.AppendUint16(b, uint16(len(eb.Neighbors)))
					for i, nb := range eb.Neighbors {
						b = binary.LittleEndian.AppendUint32(b, uint32(nb))
						b = appendF64(b, eb.Seconds[i])
					}
					return b
				})
			}
			break
		}
		var v float64
		if v, err = s.sh.Snapshot().PredictKnown(primary, mix); err == nil {
			n = 1
			st.replyOK(reqID, func(b []byte) []byte { return appendF64(b, v) })
		}
	case OpBatch:
		primary := int(r.u32())
		m := int(r.u16())
		if m > s.cfg.MaxBatch {
			err = fmt.Errorf("%w: %d mixes > max %d", ErrBatchTooLarge, m, s.cfg.MaxBatch)
			break
		}
		if !st.decodeMixes(&r, m) || !r.done() {
			err = fmt.Errorf("%w: malformed batch payload", ErrBadRequest)
			break
		}
		var res []float64
		if res, err = s.sh.Snapshot().PredictBatch(&st.pbuf, primary, st.mixes); err == nil {
			n = len(res)
			st.replyOK(reqID, func(b []byte) []byte {
				b = binary.LittleEndian.AppendUint16(b, uint16(len(res)))
				for _, v := range res {
					b = appendF64(b, v)
				}
				return b
			})
		}
	case OpFeedback:
		primary, mix := st.decodeMix(&r)
		observed := r.f64()
		if !r.done() {
			err = fmt.Errorf("%w: malformed feedback payload", ErrBadRequest)
			break
		}
		var res core.FeedbackResult
		if res, err = s.sh.Snapshot().Feedback(primary, mix, observed); err == nil {
			st.replyOK(reqID, func(b []byte) []byte {
				return appendF64(appendF64(b, res.Predicted), res.SignedError)
			})
		}
	default:
		err = fmt.Errorf("%w: opcode %d", ErrBadRequest, op)
	}
	var dur time.Duration
	if s.timed() {
		dur = obs.Mono() - start
	}
	s.observeRequest(op, n, dur, err)
	if err != nil {
		st.reply(reqID, err)
	}
}

// decodeMix reads (primary, mix) reusing the connection's arena.
func (st *connState) decodeMix(r *frameReader) (int, []int) {
	primary := int(r.u32())
	k := int(r.u16())
	if k > MaxMix {
		r.err = true
		return primary, nil
	}
	st.mixArea = st.mixArea[:0]
	for i := 0; i < k; i++ {
		st.mixArea = append(st.mixArea, int(r.u32()))
	}
	return primary, st.mixArea
}

// decodeMixes reads m mixes into the connection's arena in one pass. The
// arena is sized once, up front, to the most IDs the frame can hold: no
// more than the payload's bytes over four, nor m·MaxMix. Each mix's count
// is checked against MaxMix and the bytes left before its IDs are copied
// and the mix is sliced out of the arena, so a malformed frame returns
// false before anything is priced. (A first pass that totals the counts
// costs more than the copy it sizes: each count's offset hangs on the
// count before it.)
//
// A mix of at most shortMix IDs is copied as shortMix fixed loads when
// the payload and the arena have room: the words past the mix's end are
// overwritten by the next mix or left past the arena's length. That
// spares the mispredicted exit of a copy loop whose trip count changes
// from mix to mix: BenchmarkDecodeBatchFrame reads about 1.1 µs a frame
// with the fixed loads against 1.9 µs with the loop alone (DESIGN.md §13).
func (st *connState) decodeMixes(r *frameReader, m int) bool {
	if r.err {
		return false
	}
	b := r.b[r.off:]
	room := min(len(b)/4, m*MaxMix)
	if cap(st.mixArea) < room {
		st.mixArea = make([]int, room)
	}
	if cap(st.mixes) < m {
		st.mixes = make([][]int, m)
	}
	area, mixes, n := st.mixArea[:room], st.mixes[:m], 0
	for i := range mixes {
		if len(b) < 2 {
			r.err = true
			return false
		}
		k := int(binary.LittleEndian.Uint16(b))
		if k > MaxMix {
			return false
		}
		if len(b) < 2+4*k {
			r.err = true
			return false
		}
		if k <= shortMix && len(b) >= 2+4*shortMix && n+shortMix <= len(area) {
			w := area[n : n+shortMix]
			w[0] = int(binary.LittleEndian.Uint32(b[2:]))
			w[1] = int(binary.LittleEndian.Uint32(b[6:]))
			w[2] = int(binary.LittleEndian.Uint32(b[10:]))
			w[3] = int(binary.LittleEndian.Uint32(b[14:]))
		} else {
			ids, mix := b[2:2+4*k], area[n:n+k]
			for j := range mix {
				mix[j] = int(binary.LittleEndian.Uint32(ids[4*j:]))
			}
		}
		mixes[i], n, b = area[n:n+k:n+k], n+k, b[2+4*k:]
	}
	st.mixArea, st.mixes = area[:n], mixes
	r.off = len(r.b) - len(b)
	return true
}

// shortMix is the longest mix decodeMixes copies without a loop: four
// concurrents, MPL 5.
const shortMix = 4

// replyOK frames a success response onto st.out; fill appends the
// payload.
func (st *connState) replyOK(reqID uint32, fill func([]byte) []byte) {
	buf, lenOff := appendFrameHeader(st.out, byte(CodeOK), reqID)
	buf = fill(buf)
	patchFrameLen(buf, lenOff)
	st.out = buf
}

// reply frames an error response carrying the stable code and
// message onto st.out.
func (st *connState) reply(reqID uint32, err error) {
	code := CodeFor(err)
	buf, lenOff := appendFrameHeader(st.out, byte(code), reqID)
	msg := err.Error()
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	patchFrameLen(buf, lenOff)
	st.out = buf
}

func opName(op uint8) string {
	switch op {
	case OpPredict:
		return "predict"
	case OpBatch:
		return "predict_batch"
	case OpFeedback:
		return "feedback"
	default:
		return "unknown"
	}
}

// Shutdown stops accepting and waits for open connections and in-flight
// HTTP requests to finish (requests caught in the drain window complete
// normally). When ctx expires first, remaining connections are severed
// and Shutdown waits for their goroutines to notice. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline expired: sever what is left. The wait below
		// stays bounded — severed readers exit on their next read, and
		// any request already executing finishes on its snapshot.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	return err
}
