package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"contender"
	"contender/internal/cliutil"
	"contender/internal/serve"
)

// The ladder replays a workload's requests in process, one request at a
// time, rung by rung, each rung wrapping the one below it:
//
//	rung                what runs                              wraps
//	core.kernel         Predictor calls, no observer           -
//	core.shard          Shard calls                            core.kernel
//	obs.observed        Shard calls, with the server's Metrics  core.shard
//	                    observer and quality aggregator
//	serve.binary        binary loopback to Workbench.Serve     obs.observed
//	serve.http_handler  the HTTP front's handler, in memory    obs.observed
//	serve.http          HTTP loopback                          serve.http_handler
//
// A rung's time is its mean per request; its self time is that minus the
// time of the rung it wraps.

type rung struct {
	name, wraps string
	reqNs       float64
}

type ladder struct {
	rungs       []rung
	overheadPct float64
}

func (l *ladder) self(r rung) float64 {
	for _, w := range l.rungs {
		if w.name == r.wraps {
			return r.reqNs - w.reqNs
		}
	}
	return r.reqNs
}

// print writes the ladder table and names the rung with the largest self
// time on the binary path (kernel → shard → observed → binary) and on
// the HTTP path.
func (l *ladder) print(w io.Writer, in *inputs) {
	fmt.Fprintf(w, "ladder: workload %s, seed %d (mean per request)\n", in.w.name, in.seed)
	fmt.Fprintf(w, "%-20s %14s %14s  %s\n", "rung", "per_req_ns", "self_ns", "wraps")
	for _, r := range l.rungs {
		fmt.Fprintf(w, "%-20s %14.1f %14.1f  %s\n", r.name, r.reqNs, l.self(r), r.wraps)
	}
	fmt.Fprintf(w, "trace.overhead_pct %.2f\n", l.overheadPct)
	for _, path := range [][]string{
		{"core.kernel", "core.shard", "obs.observed", "serve.binary"},
		{"core.kernel", "core.shard", "obs.observed", "serve.http_handler", "serve.http"},
	} {
		best, bestSelf := "", 0.0
		for _, r := range l.rungs {
			for _, name := range path {
				if r.name == name && l.self(r) > bestSelf {
					best, bestSelf = name, l.self(r)
				}
			}
		}
		fmt.Fprintf(w, "dominant layer to %s: %s (%.0f%% of %.1f ns)\n", path[len(path)-1], best, 100*bestSelf/l.rung(path[len(path)-1]).reqNs, l.rung(path[len(path)-1]).reqNs)
	}
}

func (l *ladder) rung(name string) rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	return rung{}
}

// stack is the serving stack contender-serve runs — a predictor with the
// Metrics observer and a quality aggregator, Workbench.Serve, and the
// HTTP front beside /metrics — standing in this process.
type stack struct {
	pred     *contender.Predictor
	srv      *contender.BoundServer
	target   target
	stopHTTP func()
	cancel   context.CancelFunc
}

func startStack(wb *contender.Workbench) (*stack, error) {
	metrics := contender.NewMetrics()
	quality := contender.NewQuality(contender.DriftConfig{})
	blame := contender.NewBlame(contender.BlameConfig{})
	pred, err := wb.Train()
	if err != nil {
		return nil, err
	}
	pred.SetObserver(metrics)
	pred.SetQuality(quality)
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := wb.Serve(ctx, pred, "127.0.0.1:0", contender.WithServeObserver(metrics), contender.WithServeBlame(blame))
	if err != nil {
		cancel()
		return nil, err
	}
	addr, stopHTTP, err := cliutil.ServeMetrics("127.0.0.1:0", metrics, quality, blame,
		cliutil.Mount{Pattern: "/v1/", Handler: srv.Handler()})
	if err != nil {
		cancel()
		return nil, err
	}
	return &stack{pred: pred, srv: srv, target: target{bin: srv.BinaryAddr(), http: addr}, stopHTTP: stopHTTP, cancel: cancel}, nil
}

func (s *stack) stop() {
	s.stopHTTP()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // bounded by ctx; no measurement depends on it
	s.cancel()
}

// measureSetup times the set-up layers in process, median of reps:
// the sampling campaign, the same campaign through the System trainer,
// the model fit, and priming the serving index.
func measureSetup(reps int, res *result) error {
	var campaign, system, fit, prime []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		wb, err := contender.NewWorkbench(contender.WithMPLs(modelMPLs...), contender.WithSeed(modelSeed))
		if err != nil {
			return err
		}
		campaign = append(campaign, time.Since(t0).Seconds())
		// The workbench's sampling design (its experiments.Env defaults).
		t0 = time.Now()
		if _, err := contender.TrainFromSystem(wb.System(), contender.TrainConfig{
			MPLs: modelMPLs, Seed: modelSeed, LHSRuns: 4, SteadySamples: 5, IsolatedRuns: 3,
		}); err != nil {
			return err
		}
		system = append(system, time.Since(t0).Seconds())
		t0 = time.Now()
		p, err := wb.Train()
		if err != nil {
			return err
		}
		fit = append(fit, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := contender.NewSharded(p); err != nil {
			return err
		}
		prime = append(prime, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	res.set("experiments.campaign_s", median(campaign))
	res.set("contender.system_train_s", median(system))
	res.set("core.fit_s", median(fit))
	res.set("core.prime_ms", median(prime))
	return nil
}

// pair is one (primary, mix) of a workload, for single-call timings.
type pair struct {
	primary int
	mix     []int
}

// runLadder measures the single-call layer metrics over the workload's
// mixes, then the ladder over its requests, recording spans in tr.
func runLadder(in *inputs, budget time.Duration, tr *tracer, res *result) (*ladder, error) {
	reqs := in.rings[0]
	var pairs []pair
	for _, r := range reqs {
		for _, m := range r.mixes {
			pairs = append(pairs, pair{r.primary, m})
		}
	}
	// Batches of batchMixes consecutive mixes, each priced for the primary
	// of its first mix.
	var batches []*request
	for i := 0; i+batchMixes <= len(pairs); i += batchMixes {
		b := &request{primary: pairs[i].primary}
		for _, p := range pairs[i : i+batchMixes] {
			b.mixes = append(b.mixes, p.mix)
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("workload %s has fewer than %d mixes", in.w.name, batchMixes)
	}

	ref := in.ref
	plain, err := contender.NewSharded(ref)
	if err != nil {
		return nil, err
	}
	st, err := startStack(in.wb)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	observed, err := contender.NewSharded(st.pred)
	if err != nil {
		return nil, err
	}
	plainShard, obsShard := plain.Acquire(), observed.Acquire()
	var pbuf contender.PredictBuffer
	var ebuf contender.ExplainBuffer
	var failed int
	check := func(_ float64, err error) {
		if err != nil {
			failed++
		}
	}
	drainPlain := func() { plain.DrainFeedback() }
	drainObserved := func() { observed.DrainFeedback() }

	slice := func(pct int) time.Duration { return budget * time.Duration(pct) / 1000 }
	type callMetric struct {
		name    string
		n       int
		mixes   float64 // mixes per call: the metric is per mix
		fn      func(i int)
		between func()
	}
	calls := []callMetric{
		{"core.predict_ns", len(pairs), 1, func(i int) { check(ref.PredictKnown(pairs[i].primary, pairs[i].mix)) }, nil},
		{"core.cqi_ns", len(pairs), 1, func(i int) { ref.CQI(pairs[i].primary, pairs[i].mix) }, nil},
		{"core.batch_ns_per_mix", len(batches), batchMixes, func(i int) {
			_, err := ref.PredictBatch(&pbuf, batches[i].primary, batches[i].mixes)
			check(0, err)
		}, nil},
		{"core.explain_ns", len(pairs), 1, func(i int) { check(ref.Explain(&ebuf, pairs[i].primary, pairs[i].mix)) }, nil},
		{"core.shard_predict_ns", len(pairs), 1, func(i int) { check(plainShard.Predict(pairs[i].primary, pairs[i].mix)) }, nil},
		{"core.shard_batch_ns_per_mix", len(batches), batchMixes, func(i int) {
			_, err := plainShard.BatchPredict(batches[i].primary, batches[i].mixes)
			check(0, err)
		}, nil},
		{"core.shard_observe_ns", len(in.pool), 1, func(i int) {
			r := in.pool[i]
			_, err := plainShard.Observe(r.primary, r.mixes[0], r.observed)
			check(0, err)
		}, drainPlain},
		{"obs.observed_predict_ns", len(pairs), 1, func(i int) { check(st.pred.PredictKnown(pairs[i].primary, pairs[i].mix)) }, nil},
	}
	// Calls, like the rungs below, take turns in rounds so that drift on
	// the machine hits them alike (obs.overhead_ns is a difference).
	const rounds = 4
	perMix := make([]float64, len(calls))
	for round := 0; round < rounds; round++ {
		for i, c := range calls {
			perMix[i] += tr.measure(c.name, slice(30)/rounds, c.n, c.fn, c.between) / c.mixes / rounds
		}
	}
	for i, c := range calls {
		res.set(c.name, perMix[i])
	}
	res.set("obs.overhead_ns", res.Metrics["obs.observed_predict_ns"].Value-res.Metrics["core.predict_ns"].Value)
	drain, err := measureDrain(tr, obsShard, observed, in.pool, slice(30))
	if err != nil {
		return nil, err
	}
	res.set("core.drain_ns_per_sample", drain)

	// The rungs, over the workload's own requests.
	lad := &ladder{}
	kernel := func(r *request) {
		switch {
		case r.op == serve.OpBatch:
			_, err := ref.PredictBatch(&pbuf, r.primary, r.mixes)
			check(0, err)
		case r.explain:
			check(ref.Explain(&ebuf, r.primary, r.mixes[0]))
		default: // predict, and the pricing half of feedback
			check(ref.PredictKnown(r.primary, r.mixes[0]))
		}
	}
	sharded := func(sh *contender.Shard) func(r *request) {
		return func(r *request) {
			switch {
			case r.op == serve.OpBatch:
				_, err := sh.BatchPredict(r.primary, r.mixes)
				check(0, err)
			case r.op == serve.OpFeedback:
				_, err := sh.Observe(r.primary, r.mixes[0], r.observed)
				check(0, err)
			case r.explain:
				_, err := sh.Explain(r.primary, r.mixes[0])
				check(0, err)
			default:
				check(sh.Predict(r.primary, r.mixes[0]))
			}
		}
	}
	inProcess := func(name string, fn func(r *request), between func()) func(time.Duration) (float64, error) {
		return func(d time.Duration) (float64, error) {
			return tr.measure(name, d, len(reqs), func(i int) { fn(reqs[i]) }, between), nil
		}
	}
	overWire := func(name string, useHTTP bool) func(time.Duration) (float64, error) {
		return func(d time.Duration) (float64, error) {
			run, err := loopback(tr, name, st.target, reqs, useHTTP, d)
			if err != nil {
				return 0, err
			}
			failed += run.failed
			return run.lat.mean(), nil
		}
	}
	handler := st.srv.Handler()
	hreq := map[string]*http.Request{}
	for _, r := range reqs {
		if hreq[r.path] == nil {
			hreq[r.path] = httptest.NewRequest(http.MethodPost, r.path, nil)
		}
	}
	rec := &recorder{h: http.Header{}}
	inMemory := func(r *request) {
		hr := *hreq[r.path]
		hr.Body = io.NopCloser(bytes.NewReader(r.body))
		hr.ContentLength = int64(len(r.body))
		rec.reset()
		handler.ServeHTTP(rec, &hr)
		if rec.code != http.StatusOK || !jsonMatches(r, rec.body.Bytes()) {
			failed++
		}
	}
	rungs := []struct {
		name, wraps string
		run         func(d time.Duration) (float64, error)
		// The rung's metrics: time per request and self time (none for
		// the bottom rung), reported in ns divided by scale.
		metric, selfMetric string
		scale              float64
	}{
		{"core.kernel", "", inProcess("core.kernel", kernel, nil), "core.kernel_req_ns", "", 1},
		{"core.shard", "core.kernel", inProcess("core.shard", sharded(plainShard), drainPlain), "core.shard_req_ns", "core.shard_self_ns", 1},
		{"obs.observed", "core.shard", inProcess("obs.observed", sharded(obsShard), drainObserved), "obs.observed_req_ns", "obs.observed_self_ns", 1},
		{"serve.binary", "obs.observed", overWire("serve.binary", false), "serve.binary_rt_us", "serve.binary_self_us", 1e3},
		{"serve.http_handler", "obs.observed", inProcess("serve.http_handler", inMemory, nil), "serve.http_handler_ns", "serve.http_handler_self_ns", 1},
		{"serve.http", "serve.http_handler", overWire("serve.http", true), "serve.http_rt_us", "serve.http_self_us", 1e3},
	}
	// Each round starts one rung later, so no rung always follows the
	// same neighbour's cache footprint.
	perReq := make([]float64, len(rungs))
	for round := 0; round < rounds; round++ {
		for j := range rungs {
			i := (round + j) % len(rungs)
			ns, err := rungs[i].run(slice(80) / rounds)
			if err != nil {
				return nil, err
			}
			perReq[i] += ns / rounds
		}
	}
	for i, r := range rungs {
		lad.rungs = append(lad.rungs, rung{r.name, r.wraps, perReq[i]})
	}
	for i, r := range rungs {
		res.set(r.metric, perReq[i]/r.scale)
		if r.selfMetric != "" {
			res.set(r.selfMetric, lad.self(lad.rungs[i])/r.scale)
		}
	}

	// Tracing's own cost: the binary rung without and with spans,
	// alternated so drift on the machine hits both alike.
	var off, on float64
	for round := 0; round < rounds; round++ {
		for _, t := range []*tracer{nil, tr} {
			run, err := loopback(t, "serve.binary", st.target, reqs, false, slice(25))
			if err != nil {
				return nil, err
			}
			failed += run.failed
			if t == nil {
				off += run.lat.mean()
			} else {
				on += run.lat.mean()
			}
		}
	}
	lad.overheadPct = 100 * (on - off) / off
	res.set("trace.overhead_pct", lad.overheadPct)
	res.Attempted++ // the ladder counts as one checked operation
	if failed > 0 {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "bench: %d ladder calls failed or differ from the reference\n", failed)
	}
	return lad, nil
}

// measureDrain times Sharded.DrainFeedback on the server's configuration
// (Metrics observer and quality aggregator): Observe fills the rings
// untimed, then one drain is timed.
func measureDrain(tr *tracer, sh *contender.Shard, set *contender.Sharded, pool []*request, d time.Duration) (float64, error) {
	root := tr.open("core.drain")
	defer tr.close(root)
	var busy time.Duration
	samples := 0
	for i, deadline := 0, time.Now().Add(d); time.Now().Before(deadline) || samples == 0; {
		for j := 0; j < 512; j++ {
			r := pool[i%len(pool)]
			if _, err := sh.Observe(r.primary, r.mixes[0], r.observed); err != nil {
				return 0, err
			}
			i++
		}
		t0 := time.Now()
		n := set.DrainFeedback()
		t1 := time.Now()
		tr.add("core.drain", root, t0, t1, i-512, n)
		busy += t1.Sub(t0)
		samples += n
	}
	return float64(busy.Nanoseconds()) / float64(samples), nil
}

// loopback runs one connection with one request in flight against the
// in-process stack for about d, one span per request.
func loopback(tr *tracer, name string, tgt target, reqs []*request, useHTTP bool, d time.Duration) (*loadStats, error) {
	root := tr.open(name)
	defer tr.close(root)
	spec := loadSpec{depth: 1, http: useHTTP, phases: steady(d/10, d)}
	if tr != nil {
		spec.onDone = func(r *request, seq int, sent, recv time.Time) { tr.add(name, root, sent, recv, seq%len(reqs), 1) }
	}
	st, err := runLoad([]side{{target: tgt}}, [][]*request{reqs}, spec)
	if err != nil {
		return nil, err
	}
	return st[0], nil
}

// recorder is a reusable http.ResponseWriter for the in-memory rung.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) reset() {
	clear(r.h)
	r.code = http.StatusOK
	r.body.Reset()
}

// span is one recorded interval. Spans of one rung share its root as
// parent; Req is the index of the (first) request in the workload's ring.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, parent int, start, end time.Time, req, calls int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), parent, req, calls})
	return len(t.spans) - 1
}

func (t *tracer) open(name string) int {
	now := time.Now()
	return t.add(name, -1, now, now, -1, 0)
}

func (t *tracer) close(i int) {
	if t != nil && i >= 0 {
		t.spans[i].End = time.Since(t.epoch).Nanoseconds()
	}
}

// measure calls fn(i) for i = 0, 1, ... (mod n) for about d and returns
// the mean nanoseconds per call. The clock is read around chunks of 256
// calls; between runs untimed after each chunk. Calls under 1µs get one
// span per chunk, longer calls one span each.
func (t *tracer) measure(name string, d time.Duration, n int, fn func(i int), between func()) float64 {
	const chunk = 256
	root := t.open(name)
	defer t.close(root)
	// One untimed chunk warms caches and sizes the calls.
	c0 := time.Now()
	for j := 0; j < chunk; j++ {
		fn(j % n)
	}
	perCall := time.Since(c0) >= chunk*time.Microsecond
	if between != nil {
		between()
	}
	var busy time.Duration
	calls, i := 0, chunk
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		c0 := time.Now()
		if perCall && t != nil {
			prev := c0
			for j := 0; j < chunk; j++ {
				fn(i % n)
				now := time.Now()
				t.add(name, root, prev, now, i%n, 1)
				prev, i = now, i+1
			}
		} else {
			for j := 0; j < chunk; j++ {
				fn(i % n)
				i++
			}
		}
		c1 := time.Now()
		if !perCall {
			t.add(name, root, c0, c1, (i-chunk)%n, chunk)
		}
		busy += c1.Sub(c0)
		calls += chunk
		if between != nil {
			between()
		}
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir string, in *inputs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", in.w.name, in.seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{in.w.name, in.seed, t.dropped, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}
