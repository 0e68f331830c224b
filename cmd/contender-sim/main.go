// Command contender-sim explores the simulated database host: it profiles
// the bundled TPC-DS workload in isolation, under the worst-case spoiler,
// or in an arbitrary concurrent mix, printing the observables Contender
// trains on.
//
// Usage:
//
//	contender-sim                        # profile all templates in isolation
//	contender-sim -spoiler 4             # add spoiler latencies at MPL 4
//	contender-sim -workers 4             # profile templates in parallel
//	contender-sim -mix 71,2,22           # run a steady-state mix
//	contender-sim -plan 71               # print a template's query plan
package main

import (
	"contender/internal/cliutil"
	"contender/internal/obs"
	"contender/internal/sim"
	"contender/internal/tpcds"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
)

func main() {
	var (
		mixFlag  = flag.String("mix", "", "comma-separated template IDs to run as a steady-state mix")
		spoiler  = flag.Int("spoiler", 0, "also measure spoiler latency at this MPL (0 = off)")
		planFlag = flag.Int("plan", 0, "print the query plan of this template and exit")
		seed     = flag.Int64("seed", 1, "simulation seed")
		trace    = flag.Bool("trace", false, "print the execution timeline of a -mix run")
		workers  = flag.Int("workers", 0, "profiling worker pool width (0 = GOMAXPROCS)")
		maddr    = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /quality, /debug/vars, and /debug/pprof on this address while running (e.g. :9090)")
		traceOut = flag.String("trace-out", "", "write the observer event stream as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	var metrics obs.Sink // stays empty unless -metrics-addr or -trace-out is set
	if *maddr != "" {
		m := obs.NewMetrics()
		metrics = obs.Isolate(m)
		bound, stopMetrics, err := cliutil.ServeMetrics(*maddr, m, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /quality, /debug/vars, /debug/pprof)\n", bound)
	}
	if *traceOut != "" {
		rec := obs.NewRecording()
		metrics = obs.Isolate(obs.Multi(metrics, rec)) // bridged sim spans land in both
		defer func() {
			if err := cliutil.WriteTraceFile(*traceOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "contender-sim:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", rec.Len(), *traceOut)
		}()
	}

	w := tpcds.NewWorkload()
	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	engine := sim.NewEngine(cfg)

	if *planFlag != 0 {
		t, ok := w.Template(*planFlag)
		if !ok {
			fatal(fmt.Errorf("unknown template %d", *planFlag))
		}
		fmt.Printf("%s — %s\n\n%s", t.Name, t.Description, t.Plan)
		return
	}

	if *mixFlag != "" {
		ids, err := cliutil.ParseIDs(*mixFlag)
		if err != nil {
			fatal(err)
		}
		runMix(w, engine, ids, *trace, metrics)
		return
	}

	profileAll(w, cfg, *seed, *spoiler, *workers, metrics)
}

// fanoutTracer feeds one engine's trace stream to several tracers: the
// -trace timeline recorder and the -metrics-addr bridge can coexist.
type fanoutTracer []sim.Tracer

func (f fanoutTracer) Event(ev sim.TraceEvent) {
	for _, t := range f {
		t.Event(ev)
	}
}

// templateRow is one template's profile, filled in by a worker and printed
// in workload order once every row is ready.
type templateRow struct {
	tpl     tpcds.Template
	spec    sim.QuerySpec
	res     sim.Result
	spoiler float64
	err     error
}

// profileAll measures every template on its own engine, seeded from
// (seed, "template/<id>") exactly like the training-data collector, so the
// printed numbers are identical at every worker count.
func profileAll(w *tpcds.Workload, cfg sim.Config, seed int64, spoilerMPL, workers int, o obs.Sink) {
	templates := w.Templates()
	rows := make([]templateRow, len(templates))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(templates) {
		workers = len(templates)
	}
	if workers < 1 {
		workers = 1
	}

	var wg sync.WaitGroup
	ch := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range ch {
				row := &rows[idx]
				row.tpl = templates[idx]
				row.spec = w.MustSpec(row.tpl.ID)
				eng := sim.NewEngine(cfg.WithSeed(sim.DeriveSeed(seed, fmt.Sprintf("template/%d", row.tpl.ID))))
				if o.On() {
					// One bridge per engine: the bridge keys its open-span
					// table by stream ID, so engines must not share one.
					eng.SetTracer(obs.NewSimTracer(o))
				}
				row.res, row.err = eng.RunIsolated(row.spec)
				if row.err == nil && spoilerMPL > 1 {
					var sp sim.Result
					sp, row.err = eng.RunWithSpoiler(row.spec, spoilerMPL)
					row.spoiler = sp.Latency
				}
			}
		}()
	}
	for idx := range templates {
		ch <- idx
	}
	close(ch)
	wg.Wait()

	fmt.Printf("%-5s %-34s %10s %8s %9s %7s", "id", "description", "isolated", "I/O %", "ws (GiB)", "scans")
	if spoilerMPL > 1 {
		fmt.Printf("  %12s", fmt.Sprintf("spoiler@%d", spoilerMPL))
	}
	fmt.Println()
	for _, row := range rows {
		if row.err != nil {
			fatal(row.err)
		}
		desc := row.tpl.Description
		if len(desc) > 34 {
			desc = desc[:31] + "..."
		}
		fmt.Printf("%-5d %-34s %9.1fs %7.1f%% %9.2f %7d",
			row.tpl.ID, desc, row.res.Latency, 100*row.res.IOFraction(),
			row.spec.WorkingSetBytes/(1<<30), len(row.tpl.Plan.ScannedTables()))
		if spoilerMPL > 1 {
			fmt.Printf("  %11.1fs", row.spoiler)
		}
		fmt.Println()
	}
}

func runMix(w *tpcds.Workload, engine *sim.Engine, ids []int, trace bool, o obs.Sink) {
	var rec *sim.RecordingTracer
	var tracers fanoutTracer
	if trace {
		rec = &sim.RecordingTracer{}
		tracers = append(tracers, rec)
	}
	if o.On() {
		tracers = append(tracers, obs.NewSimTracer(o))
	}
	if len(tracers) > 0 {
		engine.SetTracer(tracers)
	}
	specs := make([]sim.QuerySpec, len(ids))
	for i, id := range ids {
		s, ok := w.Spec(id)
		if !ok {
			fatal(fmt.Errorf("unknown template %d", id))
		}
		specs[i] = s
	}
	res, err := engine.RunSteadyState(specs, sim.SteadyStateOptions{
		Samples: 5, WarmupSkip: 1, RestartCost: tpcds.RestartCost(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("steady-state mix %v (MPL %d), %.0f virtual seconds\n\n", ids, len(ids), res.Duration)
	fmt.Printf("%-5s %10s %10s %10s\n", "id", "mean", "min", "max")
	for i, id := range ids {
		samples := res.Samples[i]
		min, max := samples[0], samples[0]
		for _, s := range samples {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		fmt.Printf("%-5d %9.1fs %9.1fs %9.1fs\n", id, res.MeanLatency(i), min, max)
	}
	if rec != nil {
		fmt.Printf("\nexecution timeline:\n%s", rec.Timeline())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "contender-sim:", err)
	os.Exit(1)
}
