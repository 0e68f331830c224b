// Command contender-predict trains Contender on the bundled workload and
// predicts the concurrent latency of a template in a user-specified mix,
// comparing the prediction against the simulated ground truth.
//
// Usage:
//
//	contender-predict -primary 71 -with 2,22
//	contender-predict -primary 71 -with 2,22 -adhoc   # treat 71 as unseen
//	contender-predict -save model.json                # train once, save
//	contender-predict -load model.json -primary 26    # reuse without retraining
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"contender"
	"contender/internal/cliutil"
)

func main() {
	var (
		primary  = flag.Int("primary", 71, "template whose latency to predict")
		with     = flag.String("with", "2,22", "comma-separated concurrent template IDs")
		adhoc    = flag.Bool("adhoc", false, "treat the primary as a never-sampled template (constant-time path)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		planDSL  = flag.String("plan", "", "ad-hoc plan in compact notation (implies -adhoc with a synthetic template); see contender.ParsePlan")
		save     = flag.String("save", "", "after training, save the predictor snapshot to this file")
		load     = flag.String("load", "", "load a saved predictor instead of training (skips simulation ground truth)")
		workers  = flag.Int("workers", 0, "training worker pool width (0 = GOMAXPROCS)")
		ckpt     = flag.String("checkpoint", "", "checkpoint file for the training campaign; an interrupted run (Ctrl-C) resumes from it")
		maddr    = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /quality, /debug/vars, and /debug/pprof on this address while running (e.g. :9090)")
		traceOut = flag.String("trace-out", "", "write the observer event stream as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
		storeDir = flag.String("store-dir", "", "versioned knowledge store directory: serve the current version when one exists, else train and publish the baseline; corruption is detected and falls back a version")
		autoheal = flag.Bool("autoretrain", false, "run the self-healing lifecycle demo: drift the primary template, detect staleness, re-collect, canary, and promote a new store version (requires training; pairs with -store-dir)")
		quick    = flag.Bool("quick", false, "reduced sampling for a fast training pass")
		blameTop = flag.Int("blame-top", 0, "decompose every prediction in the mix into per-neighbor blame and print the top-N aggressor/victim templates (0 disables; known templates only)")
	)
	flag.Parse()

	concurrent, err := cliutil.ParseIDs(*with)
	if err != nil {
		fatal(err)
	}
	mpl := len(concurrent) + 1

	// The quality aggregator receives Feedback for every prediction that
	// has a simulated ground truth, so /quality and the final report line
	// show live accuracy. The self-heal demo uses a fast-flipping drift
	// detector so a short feedback stream reaches the stale state.
	qcfg := contender.DriftConfig{}
	if *autoheal {
		qcfg = contender.DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4}
	}
	quality := contender.NewQuality(qcfg)

	// The blame aggregator is fed by the explain decompositions behind
	// -blame-top and serves the /blame endpoint beside /quality.
	var blame *contender.Blame
	if *blameTop > 0 {
		blame = contender.NewBlame(contender.BlameConfig{TopK: *blameTop})
	}

	// The versioned store is opened (and recovered) up front so its
	// recovery report prints before anything serves from it.
	var knowStore *contender.KnowledgeStore
	if *storeDir != "" {
		var err error
		knowStore, err = contender.OpenStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		if rep := knowStore.Report(); rep.Recovered() {
			if len(rep.RemovedTemp) > 0 {
				fmt.Fprintf(os.Stderr, "store: swept %d crash-debris temp file(s)\n", len(rep.RemovedTemp))
			}
			if len(rep.CorruptVersions) > 0 {
				fmt.Fprintf(os.Stderr, "store: dropped %d corrupt version(s)\n", len(rep.CorruptVersions))
			}
			if rep.FellBackTo != "" {
				fmt.Fprintf(os.Stderr, "store: fell back to version %.8s\n", rep.FellBackTo)
			}
		}
	}

	var metrics *contender.Metrics
	var rec *contender.RecordingObserver
	if *maddr != "" {
		metrics = contender.NewMetrics()
		bound, stopMetrics, err := cliutil.ServeMetrics(*maddr, metrics, quality, blame)
		if err != nil {
			fatal(err)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /quality, /blame, /debug/vars, /debug/pprof)\n", bound)
	}
	if *traceOut != "" {
		rec = contender.NewRecordingObserver()
		defer func() {
			if err := cliutil.WriteTraceFile(*traceOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "contender-predict:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", rec.Len(), *traceOut)
		}()
	}
	// Compose without typed-nil pointers: a nil *Metrics inside an
	// Observer interface would defeat MultiObserver's nil filtering.
	var parts []contender.Observer
	if metrics != nil {
		parts = append(parts, metrics)
	}
	if rec != nil {
		parts = append(parts, rec)
	}
	observer := contender.MultiObserver(parts...)

	if *load != "" {
		pred, err := contender.LoadPredictorFile(*load)
		if err != nil {
			fatal(err)
		}
		pred.SetObserver(observer)
		pred.SetQuality(quality)
		estimate, err := pred.PredictKnown(*primary, concurrent)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("primary           : T%d (from snapshot)\n", *primary)
		fmt.Printf("concurrent mix    : %v (MPL %d)\n", concurrent, mpl)
		fmt.Printf("CQI of the mix    : %9.3f\n", pred.CQI(*primary, concurrent))
		fmt.Printf("predicted latency : %9.1f s\n", estimate)
		if blame != nil {
			if err := printBlame(pred, blame, *primary, concurrent); err != nil {
				fatal(err)
			}
		}
		return
	}

	// With a populated store, serve the current version instead of
	// retraining (unless the run is a self-heal demo, which needs the
	// workbench to re-collect).
	if knowStore != nil && !*autoheal {
		if _, ok := knowStore.Current(); ok {
			pred, v, err := knowStore.CurrentPredictor()
			if err != nil {
				fatal(err)
			}
			pred.SetObserver(observer)
			pred.SetQuality(quality)
			fmt.Fprintf(os.Stderr, "store: serving version v%d:%.8s (%s)\n", v.Seq, v.Fingerprint, v.Note)
			estimate, err := pred.PredictKnown(*primary, concurrent)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("primary           : T%d (from store v%d)\n", *primary, v.Seq)
			fmt.Printf("concurrent mix    : %v (MPL %d)\n", concurrent, mpl)
			fmt.Printf("CQI of the mix    : %9.3f\n", pred.CQI(*primary, concurrent))
			fmt.Printf("predicted latency : %9.1f s\n", estimate)
			if blame != nil {
				if err := printBlame(pred, blame, *primary, concurrent); err != nil {
					fatal(err)
				}
			}
			return
		}
	}

	fmt.Fprintf(os.Stderr, "training Contender (sampling mixes at MPLs up to %d)...\n", mpl)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	topts := []contender.Option{}
	if *quick {
		topts = append(topts, contender.QuickSampling())
	}
	topts = append(topts,
		contender.WithMPLs(cliutil.MPLsUpTo(mpl)...),
		contender.WithSeed(*seed),
		contender.WithWorkers(*workers),
		contender.WithCheckpoint(*ckpt),
		contender.WithQuality(quality),
	)
	if observer != nil {
		topts = append(topts, contender.WithObserver(observer))
	}
	wb, err := contender.NewWorkbenchContext(ctx, topts...)
	if err != nil {
		if errors.Is(err, context.Canceled) && *ckpt != "" {
			fmt.Fprintf(os.Stderr, "contender-predict: interrupted; training progress saved to %s — rerun with the same flags to resume\n", *ckpt)
			os.Exit(130)
		}
		fatal(err)
	}
	stop()
	pred, err := wb.Train()
	if err != nil {
		fatal(err)
	}
	if knowStore != nil && !*autoheal {
		if _, ok := knowStore.Current(); !ok {
			v, err := knowStore.Publish(pred, "baseline")
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "store: published baseline version v%d:%.8s\n", v.Seq, v.Fingerprint)
		}
	}
	if *autoheal {
		if err := selfHeal(wb, pred, knowStore, *primary, concurrent); err != nil {
			fatal(err)
		}
		return
	}
	if *save != "" {
		if err := pred.SaveFile(*save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved predictor snapshot to %s\n", *save)
	}

	var stats contender.TemplateStats
	if *planDSL != "" {
		plan, err := contender.ParsePlan(*planDSL)
		if err != nil {
			fatal(err)
		}
		*adhoc = true
		*primary = 9999
		stats, err = wb.ProfileTemplate(*primary, plan)
		if err != nil {
			fatal(err)
		}
	} else {
		var ok bool
		stats, ok = wb.Template(*primary)
		if !ok {
			fatal(fmt.Errorf("unknown template %d", *primary))
		}
	}

	var estimate float64
	if *adhoc {
		// Constant-time path: pretend the template was never sampled under
		// concurrency; only its isolated statistics are available.
		stats.SpoilerLatency = map[int]float64{}
		estimate, err = pred.PredictNew(stats, concurrent, contender.SpoilerKNN)
	} else {
		estimate, err = pred.PredictKnown(*primary, concurrent)
	}
	if err != nil {
		fatal(err)
	}

	var truth []float64
	if *planDSL == "" {
		truth, err = wb.Simulate(append([]int{*primary}, concurrent...))
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("primary           : T%d (%s)\n", *primary, wb.TemplateDescription(*primary))
	fmt.Printf("concurrent mix    : %v (MPL %d)\n", concurrent, mpl)
	fmt.Printf("isolated latency  : %9.1f s\n", stats.IsolatedLatency)
	if *adhoc {
		fmt.Printf("CQI of the mix    : %9.3f\n", pred.CQIForStats(stats, concurrent))
	} else {
		fmt.Printf("CQI of the mix    : %9.3f\n", pred.CQI(*primary, concurrent))
	}
	fmt.Printf("predicted latency : %9.1f s\n", estimate)
	if len(truth) > 0 {
		fmt.Printf("simulated truth   : %9.1f s\n", truth[0])
		fmt.Printf("relative error    : %9.1f %%\n", 100*abs(truth[0]-estimate)/truth[0])
		if !*adhoc {
			// Close the loop: feed the observed (simulated) latency back so
			// the quality tracker sees the same error the line above prints.
			if res, err := pred.Feedback(*primary, concurrent, truth[0]); err == nil {
				fmt.Printf("quality state     : %9s (signed error %+.3f)\n", res.State, res.SignedError)
			}
		}
	}
	if blame != nil && !*adhoc {
		if err := printBlame(pred, blame, *primary, concurrent); err != nil {
			fatal(err)
		}
	}
}

// printBlame explains every slot of the full mix against the others
// (the primary and each concurrent template take a turn as the
// explained query), folds the per-neighbor shares into the blame
// matrix, and prints the rankings: which templates steal the most
// predicted seconds from the mix (aggressors) and which lose the most
// (victims). The ranking depth is the aggregator's TopK (-blame-top).
func printBlame(pred *contender.Predictor, blame *contender.Blame, primary int, concurrent []int) error {
	full := append([]int{primary}, concurrent...)
	var buf contender.ExplainBuffer
	for i := range full {
		rest := make([]int, 0, len(full)-1)
		rest = append(rest, full[:i]...)
		rest = append(rest, full[i+1:]...)
		if len(rest) == 0 {
			continue
		}
		if _, err := pred.Explain(&buf, full[i], rest); err != nil {
			return err
		}
		blame.Observe(full[i], buf.Neighbors, buf.Seconds)
	}
	rep := blame.Report()
	fmt.Printf("\nblame attribution across the mix (%d decompositions):\n", rep.Samples)
	fmt.Printf("%-12s %12s %8s\n", "aggressor", "stolen [s]", "shares")
	for _, r := range rep.Aggressors {
		fmt.Printf("T%-11d %12.1f %8d\n", r.Template, r.Seconds, r.Count)
	}
	fmt.Printf("%-12s %12s %8s\n", "victim", "lost [s]", "shares")
	for _, r := range rep.Victims {
		fmt.Printf("T%-11d %12.1f %8d\n", r.Template, r.Seconds, r.Count)
	}
	return nil
}

// selfHeal runs the lifecycle demo: the primary template's substrate
// slows down 1.8×, the drift detector flips it to stale, and one
// control-loop step re-collects just that template, wins the canary, and
// promotes (publishing a new store version when a store is attached).
func selfHeal(wb *contender.Workbench, pred *contender.Predictor, st *contender.KnowledgeStore, victim int, concurrent []int) error {
	const shift = 1.8
	sharded, err := contender.NewSharded(pred)
	if err != nil {
		return err
	}
	lc, err := wb.Lifecycle(sharded, contender.LifecycleConfig{
		Store: st,
		World: func(id, mpl int, lat float64) float64 {
			if id == victim {
				return lat * shift
			}
			return lat
		},
	})
	if err != nil {
		return err
	}
	if st != nil {
		if v, ok := st.Current(); ok {
			fmt.Fprintf(os.Stderr, "self-heal: baseline version v%d:%.8s\n", v.Seq, v.Fingerprint)
		}
	}

	// Healthy feedback, then the sustained slowdown.
	base, err := pred.PredictKnown(victim, concurrent)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if _, err := sharded.Snapshot().Feedback(victim, concurrent, base); err != nil {
			return err
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := sharded.Snapshot().Feedback(victim, concurrent, base*shift); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "self-heal: drifted T%d by %.1fx over 40 observations\n", victim, shift)

	rep, err := lc.Step(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("self-heal action  : %s (stale %v)\n", rep.Action, rep.Stale)
	if rep.Action == contender.LifecyclePromoted {
		fmt.Printf("canary MRE        : %9.1f %% -> %.1f %%\n", 100*rep.OldMRE, 100*rep.NewMRE)
		if rep.Version.Seq != 0 {
			fmt.Printf("published version : v%d:%.8s (%s)\n", rep.Version.Seq, rep.Version.Fingerprint, rep.Version.Note)
		}
	} else if rep.Err != "" {
		fmt.Printf("detail            : %s\n", rep.Err)
	}
	if st != nil {
		fmt.Printf("store versions    : %d\n", st.Len())
	}
	healed, err := sharded.Snapshot().PredictKnown(victim, concurrent)
	if err != nil {
		return err
	}
	fmt.Printf("healed prediction : %9.1f s (was %.1f s before the drift)\n", healed, base)
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "contender-predict:", err)
	os.Exit(1)
}
