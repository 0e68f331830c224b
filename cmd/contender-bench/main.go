// Command contender-bench regenerates every table and figure of the
// paper's evaluation against the simulated PostgreSQL/TPC-DS substrate and
// prints them in the paper's shape, with the paper's headline numbers
// alongside for comparison.
//
// Usage:
//
//	contender-bench [-experiments table2,fig8] [-mpls 2,3,4,5] [-lhs 4] [-seed 42] [-quick]
//	contender-bench -checkpoint bench.ckpt   # Ctrl-C-safe: rerunning resumes the campaign
//	contender-bench -cpuprofile cpu.out -memprofile mem.out
//	contender-bench -metrics-addr :9090  # live Prometheus /metrics + /debug/pprof while sampling
//
// -quick shrinks the sampling design (fewer LHS runs, fewer steady-state
// samples) for a fast smoke pass. -workers bounds the sampling worker pool
// (0 = GOMAXPROCS); every width produces identical training data.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"contender/internal/cliutil"
	"contender/internal/experiments"
	"contender/internal/obs"
)

func main() {
	var (
		expFlag     = flag.String("experiments", "", "comma-separated experiment IDs (default: all)")
		mplsFlag    = flag.String("mpls", "2,3,4,5", "multiprogramming levels to sample")
		lhsRuns     = flag.Int("lhs", 4, "disjoint LHS designs per MPL ≥ 3")
		samples     = flag.Int("samples", 5, "steady-state samples per stream")
		seed        = flag.Int64("seed", 42, "simulation and sampling seed")
		quick       = flag.Bool("quick", false, "reduced sampling for a fast pass")
		workers     = flag.Int("workers", 0, "sampling worker pool width (0 = GOMAXPROCS)")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		format      = flag.String("format", "table", "output format: table or json")
		charts      = flag.Bool("charts", false, "also render each result as an ASCII bar chart")
		checkpoint  = flag.String("checkpoint", "", "checkpoint file for the sampling campaign; an interrupted run (Ctrl-C) resumes from it when rerun with the same flags")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /quality, /debug/vars, and /debug/pprof on this address while running (e.g. :9090)")
		traceOut    = flag.String("trace-out", "", "write the observer event stream as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	if *format != "table" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want table or json)", *format))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{
		MPLs:           parseInts(*mplsFlag),
		LHSRuns:        *lhsRuns,
		SteadySamples:  *samples,
		Seed:           *seed,
		Workers:        *workers,
		CheckpointPath: *checkpoint,
	}
	if *quick {
		opts.LHSRuns = 2
		opts.SteadySamples = 3
		opts.IsolatedRuns = 2
	}
	if *metricsAddr != "" {
		m := obs.NewMetrics()
		opts.Observer = obs.Isolate(m)
		bound, stopMetrics, err := cliutil.ServeMetrics(*metricsAddr, m, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /quality, /debug/vars, /debug/pprof)\n", bound)
	}
	var rec *obs.Recording
	if *traceOut != "" {
		rec = obs.NewRecording()
		opts.Observer = obs.Isolate(obs.Multi(opts.Observer, rec))
	}

	// Ctrl-C cancels the sampling campaign; with -checkpoint the progress
	// so far is already on disk and the next run resumes from it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	code := run(ctx, opts, *expFlag, *format, *charts)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	// Written before os.Exit — defers would not run past it.
	if rec != nil {
		if err := cliutil.WriteTraceFile(*traceOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "contender-bench:", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", rec.Len(), *traceOut)
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, opts experiments.Options, expFlag, format string, charts bool) int {
	fmt.Fprintf(os.Stderr, "profiling workload and sampling mixes (MPLs %v, %d LHS runs)...\n", opts.MPLs, opts.LHSRuns)
	start := time.Now()
	env, err := experiments.NewEnvContext(ctx, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "contender-bench: interrupted; sampling progress saved to %s — rerun with the same flags to resume\n", opts.CheckpointPath)
			return 130
		}
		fmt.Fprintln(os.Stderr, "contender-bench:", err)
		return 1
	}
	if r := env.Resilience; r.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "resumed %d completed measurements from %s\n", r.Resumed, opts.CheckpointPath)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v (%.0f simulated hours of sampling)\n",
		time.Since(start).Round(time.Millisecond),
		(env.SimulatedSeconds.Isolated+env.SimulatedSeconds.Spoiler+env.SimulatedSeconds.Mixes)/3600)

	todo := experiments.All()
	if expFlag != "" {
		todo = nil
		for _, id := range strings.Split(expFlag, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "contender-bench: unknown experiment %q (use -list)\n", id)
				return 1
			}
			todo = append(todo, e)
		}
	}

	failed := 0
	var results []*experiments.Result
	for _, e := range todo {
		t0 := time.Now()
		res, err := e.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		results = append(results, res)
		if format == "table" {
			fmt.Println(res.Render())
			if charts {
				if c := res.Chart(); c != "" {
					fmt.Println(c)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if format == "json" {
		if err := experiments.NewReport(env, results).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "contender-bench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("bad integer %q: %v", part, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "contender-bench:", err)
	os.Exit(1)
}
