// Command bench is Contender's serving benchmark. It starts
// contender-serve as a child process, loads it through the wire from a
// closed-loop client, checks every response bit for bit against an
// in-process reference predictor, and prints one JSON result line. With
// -trace 1 it instead reports per-layer metrics: the server process seen
// from outside, and the workload replayed in process up the serving
// ladder with spans recorded. See README.md.
//
// Run it from the root of the repository through run.sh, which builds
// both binaries first:
//
//	bash bench/run.sh --workload point --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload mixed --seed 1 --seconds 20 --repeat 10
//
// Run as "bench echo", it is the reference echo server (echo.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == "echo" {
		err := runEcho()
		fmt.Fprintln(os.Stderr, "bench echo:", err)
		os.Exit(1)
	}
	var (
		name     = flag.String("workload", "", "workload: point, batch, mixed or http")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds  = flag.Float64("seconds", 20, "measured window of an untraced run; the whole budget of a traced one")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		repeat   = flag.Int("repeat", 0, "run this many times with seeds seed, seed+1, ... and check each metric's spread against BENCHMARK.json")
		server   = flag.String("server", ".bench_build/contender-serve", "contender-serve binary to start")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench --workload point|batch|mixed|http --seed N --seconds S --trace 0|1 [--repeat N]")
		os.Exit(2)
	}
	// The load generator is one process on one P: it must not take the
	// server's second CPU.
	runtime.GOMAXPROCS(1)
	run := func(seed int64) (*result, error) {
		in, err := newInputs(w, seed)
		if err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		budget := time.Duration(*seconds * float64(time.Second))
		if *trace == 0 {
			return runE2E(in, budget, *server)
		}
		res, lad, err := runTrace(in, budget, *server, *traceDir)
		if err == nil {
			lad.print(os.Stdout, in)
		}
		return res, err
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*seed, *repeat, run))
	}
	res, err := run(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
