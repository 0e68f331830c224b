package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	// coldStarts is how many times a run starts the server to time its
	// set-up: the first stays up for the load, the others come one after
	// each chunk of the window, so that set-up is sampled across the run.
	coldStarts = 9
	// warmUp precedes the measured window of an untraced run, half of it
	// on each side; rewarm precedes each later chunk of the window.
	warmUp = 2 * time.Second
	rewarm = 200 * time.Millisecond
	// slice is the length of one phase of the interleaved window.
	slice = 250 * time.Millisecond
)

// runE2E is the untraced run: time the server's cold starts, load the
// first server for the window, interleaved with the echo, and report
// what a caller sees.
func runE2E(in *inputs, window time.Duration, serverPath string) (*result, error) {
	// Collect the generated inputs' garbage now, so that no collection
	// of this process runs beside a starting server.
	runtime.GC()
	srv, d, err := coldStart(serverPath, in.probe[0])
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setups := []float64{d.Seconds()}
	if err := srv.await(60 * time.Second); err != nil {
		return nil, err
	}
	echo, err := startEcho()
	if err != nil {
		return nil, err
	}
	defer echo.stop()
	sides := []side{{target: srv.target}, {target: echo.target, echo: true}}
	load := func() ([]*loadStats, error) {
		total := []*loadStats{{}, {}}
		chunks := coldStarts - 1
		for k := 0; k < chunks; k++ {
			warm := rewarm
			if k == 0 {
				warm = warmUp
			}
			spec := loadSpec{depth: in.w.depth, http: in.w.http, phases: interleaved(warm, window/time.Duration(chunks), slice)}
			st, err := runLoad(sides, in.rings, spec)
			if err != nil {
				return nil, err
			}
			for s := range total {
				total[s].add(st[s])
			}
			c, d, err := coldStart(serverPath, in.probe[0])
			if err != nil {
				return nil, err
			}
			c.stop()
			setups = append(setups, d.Seconds())
		}
		return total, nil
	}
	st, _, err := verifiedLoad(sides, in, load)
	if err != nil {
		return nil, err
	}
	served, echoed := st[0], st[1]
	if echoed.failed > 0 || echoed.windowReqs == 0 || served.windowReqs == 0 {
		return nil, fmt.Errorf("%d requests measured on the server, %d on the echo, %d echoes wrong", served.windowReqs, echoed.windowReqs, echoed.failed)
	}
	rss, err := peakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	res := newResult(endToEnd)
	res.count(served)
	res.Correct = res.Correct && served.countersMatch
	res.set("setup_s", median(setups))
	res.set("req_rate_vs_echo", served.reqRate()/echoed.reqRate())
	res.set("rss_mb", rss)
	res.set("mre_pct", 100*in.mre)
	return res, res.complete()
}

// verifiedLoad loads a server (sides[0]) that has answered exactly one
// request so far (the cold-start probe): it first checks the served
// model on the ground-truth pool, then runs load, which drives every
// side, then compares the server's request counters with what the
// client sent it. It returns the stats of every side and the server's
// last /metrics scrape.
func verifiedLoad(sides []side, in *inputs, load func() ([]*loadStats, error)) ([]*loadStats, map[string]float64, error) {
	total := &loadStats{attempted: 1, preds: 1, sent: map[string]int{"predict": 1}}
	probe, err := runLoad(sides[:1], [][]*request{in.probe}, loadSpec{depth: 8, limit: len(in.probe)})
	if err != nil {
		return nil, nil, fmt.Errorf("ground-truth probe: %w", err)
	}
	total.add(probe[0])
	st, err := load()
	if err != nil {
		return nil, nil, err
	}
	total.add(st[0])
	st[0] = total
	if total.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d responses differ from the reference; first: %s\n", total.failed, total.attempted, total.firstFailure)
	}
	m, err := checkCounters(sides[0].http, total)
	if errors.Is(err, errCounters) {
		fmt.Fprintln(os.Stderr, "bench:", err)
	} else if err != nil {
		return nil, nil, err
	}
	total.countersMatch = err == nil
	return st, m, nil
}

var errCounters = errors.New("server counters differ from the client's")

// checkCounters compares contender_serve_requests_total{op} and
// contender_serve_predictions_total with the client's counts. The binary
// front counts a request just after it answers, so a scrape right after
// the last response may lag: it retries for up to two seconds.
func checkCounters(httpAddr string, st *loadStats) (map[string]float64, error) {
	var diff error
	for try := 0; try < 40; try++ {
		m, err := scrapeMetrics(httpAddr)
		if err != nil {
			return nil, err
		}
		diff = nil
		for _, op := range []string{"predict", "predict_batch", "feedback"} {
			if got := m[`contender_serve_requests_total{op="`+op+`"}`]; got != float64(st.sent[op]) {
				diff = fmt.Errorf("%w: %s requests %v, client sent %d", errCounters, op, got, st.sent[op])
			}
		}
		if got := m["contender_serve_predictions_total"]; diff == nil && got != float64(st.preds) {
			diff = fmt.Errorf("%w: predictions %v, client received %d", errCounters, got, st.preds)
		}
		if diff == nil {
			return m, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, diff
}

// runTrace is the traced run: the server process and the client under
// the workload, then the in-process set-up and ladder measurements. The
// budget splits as 1s warm-up + 30% load window, 55% ladder.
func runTrace(in *inputs, budget time.Duration, serverPath, traceDir string) (*result, *ladder, error) {
	res := newResult(perLayer)
	if err := measureProcess(in, budget*30/100, serverPath, res); err != nil {
		return nil, nil, err
	}

	// In process, the serving stack gets the server's parallelism.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(1)
	if err := measureSetup(3, res); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	lad, err := runLadder(in, budget*55/100, tr, res)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(traceDir, in); err != nil {
		return nil, nil, err
	}
	return res, lad, res.complete()
}

// measureProcess loads a fresh server with the workload and reads, over
// the window, the server's CPU time, allocations and GC cycles from
// outside, and the client's own CPU time.
func measureProcess(in *inputs, window time.Duration, serverPath string, res *result) error {
	srv, _, err := coldStart(serverPath, in.probe[0])
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := srv.await(60 * time.Second); err != nil {
		return err
	}
	type sample struct {
		cpu, self  time.Duration
		alloc, gcs float64
		err        error
		wall       time.Time
	}
	var at [2]sample
	mark := func(start bool) {
		s := &at[1]
		if start {
			s = &at[0]
		}
		s.wall = time.Now()
		var e1, e2, e3 error
		s.cpu, e1 = cpuTime(srv.pid())
		s.self, e2 = cpuTime(os.Getpid())
		s.alloc, s.gcs, e3 = heapStats(srv.target.http)
		s.err = errors.Join(e1, e2, e3)
	}
	spec := loadSpec{depth: in.w.depth, http: in.w.http, phases: steady(time.Second, window), mark: mark}
	sides := []side{{target: srv.target}}
	sts, m, err := verifiedLoad(sides, in, func() ([]*loadStats, error) { return runLoad(sides, in.rings, spec) })
	if err != nil {
		return err
	}
	st := sts[0]
	if err := errors.Join(at[0].err, at[1].err); err != nil {
		return err
	}
	if st.windowReqs == 0 {
		return errors.New("no request completed in the window")
	}
	res.count(st)
	res.Correct = res.Correct && st.countersMatch
	reqs := float64(st.windowReqs)
	res.set("proc.cpu_us_per_req", float64((at[1].cpu-at[0].cpu).Microseconds())/reqs)
	res.set("proc.alloc_bytes_per_req", (at[1].alloc-at[0].alloc)/reqs)
	res.set("proc.gc_cycles", at[1].gcs-at[0].gcs)
	dropped := 0.0
	if fb := st.sent["feedback"]; fb > 0 {
		dropped = m["contender_quality_dropped_total"] / float64(fb)
	}
	res.set("proc.feedback_dropped_frac", dropped)
	res.set("client.cpu_frac", (at[1].self-at[0].self).Seconds()/at[1].wall.Sub(at[0].wall).Seconds())
	res.set("client.req_per_s", st.reqRate())
	res.set("client.lat_p50_us", st.lat.quantile(0.50)/1e3)
	res.set("client.lat_p90_us", st.lat.quantile(0.90)/1e3)
	res.set("client.lat_p99_us", st.lat.quantile(0.99)/1e3)
	res.set("client.lat_p999_us", st.lat.quantile(0.999)/1e3)
	return nil
}
