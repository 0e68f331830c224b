package contender

import (
	"context"
	"io"
	"net/http"
	"time"

	"contender/internal/obs"
	"contender/internal/serve"
)

// Serving facade: the predictor as a network service. One option
// vocabulary (ServeOption) configures both serving entry points —
// NewServer (the wire-protocol server over a Sharded snapshot) and
// Workbench.Serve (the one-call path from a trained workbench to a
// listening service) — so batch limits, admission control and
// instrumentation are named once and mean the same thing everywhere.
//
// The server speaks the versioned v1 wire schema on two protocols
// backed by the same core: HTTP/JSON (POST /v1/predict,
// /v1/predict_batch, /v1/feedback — mount Handler() beside /metrics)
// and a compact length-prefixed binary protocol (ListenBinary) for
// high-throughput clients. Both produce byte-identical prediction
// payloads for the same requests, and hot-swaps (Sharded.Swap, the
// Lifecycle loop) never block a single serving call.

// ServeOption configures NewServer and Workbench.Serve.
type ServeOption func(*serveConfig)

type serveConfig struct {
	maxBatch  int
	admission serve.AdmissionConfig
	observer  Observer
	blame     *obs.Blame
	slowLog   *obs.SlowLog
}

func buildServeConfig(opts []ServeOption) serveConfig {
	var cfg serveConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithMaxBatch caps the mixes of one predict_batch request (default
// 4096); larger requests answer batch_too_large.
func WithMaxBatch(n int) ServeOption {
	return func(c *serveConfig) { c.maxBatch = n }
}

// WithAdmission bounds each binary connection (and the HTTP front as a
// whole) with a token bucket of rate requests/second and burst
// capacity, plus a cap on in-flight requests. The cap bounds the HTTP
// front only: a binary connection answers one frame at a time, so only
// the bucket applies there. Zero disables a check;
// rejected requests answer the stable "overloaded" code (HTTP 429),
// which is transient in the resilience taxonomy: back off and retry.
func WithAdmission(rate float64, burst, maxInflight int) ServeOption {
	return func(c *serveConfig) {
		c.admission = serve.AdmissionConfig{Rate: rate, Burst: burst, MaxInflight: maxInflight}
	}
}

// WithServeObserver installs an observer on the server: serve.request
// spans and serve.* points. When the observer contains a *Metrics
// (directly or in a Multi), the contender_serve_* metric families
// register on it automatically.
func WithServeObserver(o Observer) ServeOption {
	return func(c *serveConfig) { c.observer = o }
}

// WithServeBlame installs a contention blame aggregator on the server:
// every explained prediction it answers (the wire schema's opt-in
// explain flag) folds its per-neighbor decomposition into b's pairwise
// matrix. Workbench.Serve installs the workbench's own aggregator
// (WithBlame) unless this option overrides it.
func WithServeBlame(b *Blame) ServeOption {
	return func(c *serveConfig) { c.blame = b }
}

// WithSlowLog logs every request slower than threshold to w, one line
// per request (protocol op, payload size, latency, error label),
// measured from admission to reply. A threshold ≤ 0 logs every
// request. The logger serializes writes internally, so w needs no
// extra locking.
func WithSlowLog(w io.Writer, threshold time.Duration) ServeOption {
	return func(c *serveConfig) { c.slowLog = obs.NewSlowLog(w, threshold) }
}

// Server exposes one Sharded snapshot over the v1 wire schema.
type Server struct {
	inner   *serve.Server
	sharded *Sharded
}

// NewServer builds a wire-protocol server over a serving snapshot.
// It starts serving when Handler is mounted or ListenBinary is called.
func NewServer(s *Sharded, opts ...ServeOption) (*Server, error) {
	cfg := buildServeConfig(opts)
	inner, err := serve.New(s.inner, serve.Config{
		Observer:  cfg.observer,
		Metrics:   obs.FindMetrics(cfg.observer),
		Blame:     cfg.blame,
		SlowLog:   cfg.slowLog,
		MaxBatch:  cfg.maxBatch,
		Admission: cfg.admission,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner, sharded: s}, nil
}

// Handler returns the HTTP/JSON front (POST /v1/predict,
// /v1/predict_batch, /v1/feedback) for mounting on any mux — typically
// beside the /metrics and /quality endpoints.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// ListenBinary starts the binary-protocol listener on addr and returns
// the bound address (useful with ":0").
func (s *Server) ListenBinary(addr string) (string, error) { return s.inner.ListenBinary(addr) }

// Sharded returns the serving snapshot behind the server, for
// hot-swaps.
func (s *Server) Sharded() *Sharded { return s.sharded }

// Shutdown stops listeners, drains in-flight requests until ctx
// expires, then severs what remains. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error { return s.inner.Shutdown(ctx) }

// Serve is the one-call serving path: wrap a trained predictor in a
// serving snapshot, stand a server over it, and bind the binary
// protocol on addr (use ":0" for an ephemeral port; the bound address
// is available from BinaryAddr). The workbench's observer instruments
// the server unless WithServeObserver overrides it, the workbench's
// blame aggregator (WithBlame) receives every explained prediction
// unless WithServeBlame overrides it, and the returned
// server shuts down with a 5-second drain when ctx is cancelled. Mount
// Handler() for the HTTP front — Workbench.Serve does not bind it to
// keep the HTTP mux composition (metrics, quality, pprof) in the
// caller's hands.
func (w *Workbench) Serve(ctx context.Context, p *Predictor, addr string, opts ...ServeOption) (*BoundServer, error) {
	cfg := buildServeConfig(opts)
	if o := w.env.Opts.Observer; o != nil && cfg.observer == nil {
		opts = append(opts, WithServeObserver(o))
	}
	if w.blame != nil && cfg.blame == nil {
		opts = append(opts, WithServeBlame(w.blame))
	}
	sharded, err := NewSharded(p)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(sharded, opts...)
	if err != nil {
		return nil, err
	}
	bound, err := srv.ListenBinary(addr)
	if err != nil {
		return nil, err
	}
	bs := &BoundServer{Server: srv, addr: bound}
	go func() {
		<-ctx.Done()
		// The drain must outlive the cancelled ctx: detach from its
		// cancellation (keeping values) and bound the drain on its own.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	return bs, nil
}

// BoundServer is a Server whose binary listener is already bound.
type BoundServer struct {
	*Server
	addr string
}

// BinaryAddr returns the bound binary-protocol address.
func (b *BoundServer) BinaryAddr() string { return b.addr }
