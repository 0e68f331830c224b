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
	"time"

	"contender/internal/core"
	"contender/internal/obs"
	"contender/internal/resilience"
)

// Server is the network-facing prediction service: one core.Sharded
// behind both wire protocols. Construction is cheap; the server starts
// work when ListenBinary accepts connections or Handler is mounted on
// an HTTP mux. Shutdown drains in-flight requests under a deadline.
//
// Concurrency model:
//
//   - Each accepted binary connection is owned by one reader goroutine
//     plus one writer goroutine flushing framed responses. The reader
//     borrows a shard from the free list only while complete frames are
//     buffered (per-burst affinity — the shard's scratch stays hot
//     across a pipelined burst) and returns it before any read that can
//     block, so idle connections never pin shards: a handful of
//     silent TCP connections cannot starve the HTTP front.
//   - HTTP handlers borrow shards from the same free list, sized to the
//     shard count; a borrowed shard is used single-threadedly. Borrows
//     wait at most Config.BorrowWait before answering overloaded.
//   - Every request is priced directly on its shard. Untrusted mixes
//     need no separate validation pass: the core prices each request
//     against one snapshot load and reports unknown templates as
//     core.ErrUnknownTemplate, which maps to the unknown_template code.
//   - Snapshot hot-swaps (Sharded.Swap, the lifecycle loop) never block
//     serving: every prediction reads the atomic snapshot pointer, so a
//     request straddling a swap simply completes on the old model.
type Server struct {
	cfg   Config
	sh    *core.Sharded
	httpA *admitter // admission for the HTTP front
	free  chan *core.Shard

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	// connWg tracks serving work (accept loops, binary connections,
	// in-flight HTTP requests); drainWg tracks the feedback-drain loop.
	// Shutdown waits out connWg before stopping the drain loop, so
	// feedback accepted during the drain window is still folded.
	connWg  sync.WaitGroup
	drainWg sync.WaitGroup
	drain   chan struct{} // closes to stop the feedback-drain loop

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
	// BorrowWait bounds how long an HTTP request or a binary frame
	// waits for a free shard before answering overloaded (default 1s).
	BorrowWait time.Duration
	// Admission bounds each binary connection and the HTTP front as a
	// whole. The zero value admits everything.
	Admission AdmissionConfig
	// DrainEvery is the feedback-drain cadence: buffered Shard.Observe
	// samples fold into the quality aggregator this often (default
	// 100ms; negative disables the loop).
	DrainEvery time.Duration
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
}

func newServeMetrics(m *obs.Metrics) serveMetrics {
	if m == nil {
		return serveMetrics{}
	}
	reg := m.Registry()
	return serveMetrics{
		requests:    reg.CounterVec("contender_serve_requests_total", "Wire requests by operation.", "op"),
		errors:      reg.CounterVec("contender_serve_errors_total", "Wire errors by stable v1 code.", "code"),
		predictions: reg.Counter("contender_serve_predictions_total", "Predictions served across both protocols."),
		overloads:   reg.Counter("contender_serve_overload_total", "Requests rejected by admission control."),
		connections: reg.Counter("contender_serve_connections_total", "Binary protocol connections accepted."),
	}
}

// New builds a server over a sharded serving set.
func New(sh *core.Sharded, cfg Config) (*Server, error) {
	if sh == nil {
		return nil, resilience.Permanent(errors.New("serve: New needs a sharded serving set"))
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.DrainEvery == 0 {
		cfg.DrainEvery = 100 * time.Millisecond
	}
	if cfg.BorrowWait <= 0 {
		cfg.BorrowWait = time.Second
	}
	s := &Server{
		cfg:   cfg,
		sh:    sh,
		conns: map[net.Conn]struct{}{},
		drain: make(chan struct{}),
		free:  make(chan *core.Shard, sh.NumShards()),
		met:   newServeMetrics(cfg.Metrics),
	}
	for i := 0; i < sh.NumShards(); i++ {
		s.free <- sh.Acquire()
	}
	if cfg.Admission.enabled() {
		s.httpA = newAdmitter(cfg.Admission, cfg.Now)
	}
	if cfg.DrainEvery > 0 {
		s.drainWg.Add(1)
		go s.drainLoop()
	}
	return s, nil
}

// Sharded returns the serving set behind the server (for hot-swaps).
func (s *Server) Sharded() *core.Sharded { return s.sh }

// drainLoop periodically folds buffered feedback into the quality
// aggregator, emitting a serve.drain point per non-empty tick.
func (s *Server) drainLoop() {
	defer s.drainWg.Done()
	t := time.NewTicker(s.cfg.DrainEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.sh.DrainFeedback(); n > 0 {
				obs.Emit(s.cfg.Observer, obs.Event{Kind: obs.Point, Span: obs.PointServeDrain, Value: float64(n)})
			}
		case <-s.drain:
			s.sh.DrainFeedback()
			return
		}
	}
}

// borrow takes a shard from the free list. The list bounds shard users
// to the shard count; when every shard is busy the wait is bounded by
// BorrowWait, after which the request answers overloaded instead of
// parking a goroutine indefinitely.
func (s *Server) borrow() (*core.Shard, error) {
	select {
	case sh := <-s.free:
		return sh, nil
	default:
	}
	t := time.NewTimer(s.cfg.BorrowWait)
	defer t.Stop()
	select {
	case sh := <-s.free:
		return sh, nil
	case <-t.C:
		return nil, fmt.Errorf("%w: no shard free within %v", ErrOverloaded, s.cfg.BorrowWait)
	}
}

func (s *Server) giveBack(sh *core.Shard) { s.free <- sh }

// timed reports whether request handlers need wall-clock timing: either
// an observer wants the serve.request span or a slow log wants to judge
// the request's latency.
func (s *Server) timed() bool { return s.cfg.Observer != nil || s.cfg.SlowLog != nil }

// observeRequest emits the serve.request span and folds counters.
func (s *Server) observeRequest(op string, n int, dur time.Duration, err error) {
	if s.met.requests != nil {
		s.met.requests.With(op).Inc()
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
			Key:   op,
			Value: float64(n),
			Dur:   dur,
			Err:   obs.ErrLabel(err),
		})
	}
	if s.cfg.SlowLog != nil {
		s.cfg.SlowLog.Event(obs.Event{
			Kind:  obs.SpanEnd,
			Span:  obs.SpanServeRequest,
			Key:   op,
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
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handleJSON(w, r, "predict", func(body []byte) (any, int, error) {
			var req PredictRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if req.Explain {
				resp, err := s.predictExplain(req.Primary, req.Concurrent)
				if err != nil {
					return nil, 0, err
				}
				return resp, 1, nil
			}
			v, err := s.predictOne(req.Primary, req.Concurrent)
			if err != nil {
				return nil, 0, err
			}
			return PredictResponse{Prediction: v}, 1, nil
		})
	})
	mux.HandleFunc("/v1/predict_batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleJSON(w, r, "predict_batch", func(body []byte) (any, int, error) {
			var req BatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if len(req.Mixes) > s.cfg.MaxBatch {
				return nil, 0, fmt.Errorf("%w: %d mixes > max %d", ErrBatchTooLarge, len(req.Mixes), s.cfg.MaxBatch)
			}
			out, err := s.batchPredict(req.Primary, req.Mixes)
			if err != nil {
				return nil, 0, err
			}
			return BatchResponse{Predictions: out}, len(out), nil
		})
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		s.handleJSON(w, r, "feedback", func(body []byte) (any, int, error) {
			var req FeedbackRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			res, err := s.observe(req.Primary, req.Concurrent, req.Observed)
			if err != nil {
				return nil, 0, err
			}
			return FeedbackResponse{Predicted: res.Predicted, SignedError: res.SignedError}, 0, nil
		})
	})
	return mux
}

// handleJSON is the shared HTTP plumbing: method check, admission,
// body read, dispatch, envelope rendering, observation.
func (s *Server) handleJSON(w http.ResponseWriter, r *http.Request, op string, fn func(body []byte) (any, int, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, fmt.Errorf("%w: method %s", ErrBadRequest, r.Method))
		return
	}
	// Register with connWg so Shutdown's drain window waits for this
	// request before it stops the drain loop; a request arriving after
	// Shutdown began is refused (transient — retry another replica).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.overloaded(op)
		writeJSONError(w, fmt.Errorf("%w: server shutting down", ErrOverloaded))
		return
	}
	s.connWg.Add(1)
	s.mu.Unlock()
	defer s.connWg.Done()
	if s.httpA != nil && !s.httpA.admit() {
		s.overloaded(op)
		writeJSONError(w, ErrOverloaded)
		return
	}
	if s.httpA != nil {
		defer s.httpA.release()
	}
	var start time.Time
	if s.timed() {
		start = time.Now()
	}
	// Read one byte past the cap so an over-limit body is detected and
	// refused explicitly instead of being silently truncated (a valid
	// JSON prefix of a truncated body must never parse as a request).
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
	var dur time.Duration
	if s.timed() {
		dur = time.Since(start)
	}
	s.observeRequest(op, n, dur, err)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(resp)
}

// writeJSONError renders the v1 error envelope under the code's HTTP
// status.
func writeJSONError(w http.ResponseWriter, err error) {
	code := CodeFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code.HTTPStatus())
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: WireError{Code: code.String(), Message: err.Error()}})
}

// predictOne prices a single prediction on a borrowed shard.
func (s *Server) predictOne(primary int, mix []int) (float64, error) {
	sh, err := s.borrow()
	if err != nil {
		return 0, err
	}
	defer s.giveBack(sh)
	return sh.Predict(primary, mix)
}

// predictExplain prices one prediction with its per-neighbor blame
// breakdown on a borrowed shard. The prediction itself is bit-identical
// to the non-explain path by construction (core.PredictExplain prices
// through PredictKnown's body with a term sink). The breakdown slices
// are copied out of the shard's buffer before the shard returns to the
// free list.
func (s *Server) predictExplain(primary int, mix []int) (PredictResponse, error) {
	sh, err := s.borrow()
	if err != nil {
		return PredictResponse{}, err
	}
	defer s.giveBack(sh)
	eb, err := sh.Explain(primary, mix)
	if err != nil {
		return PredictResponse{}, err
	}
	s.cfg.Blame.Observe(primary, eb.Neighbors, eb.Seconds)
	return PredictResponse{
		Prediction: eb.Total,
		Explain: &ExplainBreakdown{
			Baseline:  eb.Baseline,
			CQI:       eb.CQI,
			Neighbors: append([]int(nil), eb.Neighbors...),
			Seconds:   append([]float64(nil), eb.Seconds...),
		},
	}, nil
}

// batchPredict executes one predict_batch request on a borrowed shard,
// copying the results out of the shard's scratch. Both protocol fronts
// price batches through core.PredictBatch, which is what makes their
// payloads byte-identical for the same request.
func (s *Server) batchPredict(primary int, mixes [][]int) ([]float64, error) {
	sh, err := s.borrow()
	if err != nil {
		return nil, err
	}
	defer s.giveBack(sh)
	res, err := sh.BatchPredict(primary, mixes)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res))
	copy(out, res)
	return out, nil
}

// observe executes one feedback request on a borrowed shard.
func (s *Server) observe(primary int, mix []int, observed float64) (core.FeedbackResult, error) {
	sh, err := s.borrow()
	if err != nil {
		return core.FeedbackResult{}, err
	}
	defer s.giveBack(sh)
	return sh.Observe(primary, mix, observed)
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

// connState is one binary connection's working set: its (per-burst
// borrowed) shard, its admission bucket, and reusable request/response
// buffers. Everything is single-goroutine (the reader), except the
// response channel feeding the writer.
type connState struct {
	srv   *Server
	shard *core.Shard // nil when not borrowed; held only across buffered bursts
	adm   *admitter

	respCh chan *[]byte
	wErr   chan error

	mixes   [][]int // decoded batch mixes, reused across frames
	mixArea []int   // backing storage for mixes, reused across frames
	mixOffs []int   // mix boundaries in mixArea, reused across frames
}

var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	st := &connState{
		srv:    s,
		respCh: make(chan *[]byte, 64),
		wErr:   make(chan error, 1),
	}
	defer st.releaseShard()
	if s.cfg.Admission.enabled() {
		st.adm = newAdmitter(s.cfg.Admission, s.cfg.Now)
	}

	// Writer goroutine: flush coalesces — one syscall per quiet moment,
	// not per response — which is what lets a pipelined client sustain
	// millions of predictions per second over one descriptor.
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		bw := bufio.NewWriterSize(conn, 64<<10)
		for bp := range st.respCh {
			_, err := bw.Write(*bp)
			*bp = (*bp)[:0]
			respBufPool.Put(bp)
			if err == nil && len(st.respCh) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				select {
				case st.wErr <- err:
				default:
				}
				for bp := range st.respCh {
					*bp = (*bp)[:0]
					respBufPool.Put(bp)
				} // drain until close so the reader never blocks
				return
			}
		}
		_ = bw.Flush()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	payload := make([]byte, 0, 512)
	var header [4]byte
	for {
		// Return the shard before any read that can block: a borrowed
		// shard may only be held while complete frames are buffered
		// (per-burst affinity), never across a wait on the client —
		// otherwise idle connections would pin the free list dry.
		if st.shard != nil && !frameBuffered(br) {
			st.releaseShard()
		}
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
		select {
		case <-st.wErr:
			goto done
		default:
		}
	}
done:
	// Return any borrowed shard before waiting on the writer: the wait
	// can outlast a slow flush, and a shard parked here is invisible to
	// every other connection (found by contender-vet's borrowpair).
	st.releaseShard()
	close(st.respCh)
	wwg.Wait()
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
	var start time.Time
	if s.timed() {
		start = time.Now()
	}
	var n int
	var err error
	var sh *core.Shard
	r := frameReader{b: payload}
	if explain && op != OpPredict {
		err = fmt.Errorf("%w: explain flag on opcode %d", ErrBadRequest, op)
		s.observeRequest(opName(op), 0, 0, err)
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
		if sh, err = st.ensureShard(); err != nil {
			break
		}
		if explain {
			// The shard's explain buffer stays valid while the shard is
			// held, and it is held across this whole frame, so the reply
			// frames straight out of the buffer with no copies.
			var eb *core.ExplainBuffer
			if eb, err = sh.Explain(primary, mix); err == nil {
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
		if v, err = sh.Predict(primary, mix); err == nil {
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
		if sh, err = st.ensureShard(); err != nil {
			break
		}
		var res []float64
		if res, err = sh.BatchPredict(primary, st.mixes); err == nil {
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
		if sh, err = st.ensureShard(); err != nil {
			break
		}
		var res core.FeedbackResult
		if res, err = sh.Observe(primary, mix, observed); err == nil {
			st.replyOK(reqID, func(b []byte) []byte {
				return appendF64(appendF64(b, res.Predicted), res.SignedError)
			})
		}
	default:
		err = fmt.Errorf("%w: opcode %d", ErrBadRequest, op)
	}
	var dur time.Duration
	if s.timed() {
		dur = time.Since(start)
	}
	s.observeRequest(opName(op), n, dur, err)
	if err != nil {
		st.reply(reqID, err)
	}
}

// ensureShard borrows a shard for the current burst if the connection
// does not already hold one. The borrow is bounded (BorrowWait), so a
// frame arriving while every shard is busy answers overloaded instead
// of parking the connection's reader.
func (st *connState) ensureShard() (*core.Shard, error) {
	if st.shard == nil {
		sh, err := st.srv.borrow()
		if err != nil {
			return nil, err
		}
		st.shard = sh
	}
	return st.shard, nil
}

// releaseShard returns the burst's shard to the free list, if held.
func (st *connState) releaseShard() {
	if st.shard != nil {
		st.srv.giveBack(st.shard)
		st.shard = nil
	}
}

// frameBuffered reports whether the reader already holds one complete
// frame — i.e. the next loop iteration will not block on the client.
// A bogus length prefix counts as buffered: the loop answers the error
// and hangs up without another read.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	h, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := int(binary.LittleEndian.Uint32(h))
	if n < frameHeaderSize || n > MaxFrame {
		return true
	}
	return br.Buffered() >= 4+n
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

// decodeMixes reads m mixes into the connection's arena.
func (st *connState) decodeMixes(r *frameReader, m int) bool {
	st.mixes = st.mixes[:0]
	st.mixArea = st.mixArea[:0]
	// Mixes are sliced out of mixArea only after it stops growing, so
	// record the boundaries first.
	st.mixOffs = append(st.mixOffs[:0], 0)
	for i := 0; i < m; i++ {
		k := int(r.u16())
		if k > MaxMix || r.err {
			return false
		}
		for j := 0; j < k; j++ {
			st.mixArea = append(st.mixArea, int(r.u32()))
		}
		st.mixOffs = append(st.mixOffs, len(st.mixArea))
	}
	if r.err {
		return false
	}
	for i := 0; i < m; i++ {
		st.mixes = append(st.mixes, st.mixArea[st.mixOffs[i]:st.mixOffs[i+1]])
	}
	return true
}

// replyOK frames a success response; fill appends the payload.
func (st *connState) replyOK(reqID uint32, fill func([]byte) []byte) {
	bp := respBufPool.Get().(*[]byte)
	buf, lenOff := appendFrameHeader((*bp)[:0], byte(CodeOK), reqID)
	buf = fill(buf)
	patchFrameLen(buf, lenOff)
	*bp = buf
	st.respCh <- bp
}

// reply frames an error response carrying the stable code and message.
func (st *connState) reply(reqID uint32, err error) {
	code := CodeFor(err)
	bp := respBufPool.Get().(*[]byte)
	buf, lenOff := appendFrameHeader((*bp)[:0], byte(code), reqID)
	msg := err.Error()
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	patchFrameLen(buf, lenOff)
	*bp = buf
	st.respCh <- bp
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

// Shutdown stops accepting, waits for open connections and in-flight
// HTTP requests to finish (requests caught in the drain window complete
// normally), and only then stops the feedback-drain loop. When ctx
// expires first, remaining connections are severed and Shutdown waits
// for their goroutines to notice. Safe to call more than once.
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
		// any request already executing finishes on its shard.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}

	// No serving work remains: stop the drain loop.
	close(s.drain)
	s.drainWg.Wait()
	return err
}
