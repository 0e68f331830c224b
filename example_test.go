package contender_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"contender"
)

// Example shows the minimal train→predict loop: profile the bundled
// workload, train, and predict a known template's concurrent latency.
// Predictions are validated structurally (they must land strictly inside
// the template's performance continuum) because exact values depend on
// the simulated host.
func Example() {
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}

	latency, err := pred.PredictKnown(71, []int{2})
	if err != nil {
		log.Fatal(err)
	}
	stats, _ := wb.Template(71)
	fmt.Println("prediction above isolated latency:", latency > stats.IsolatedLatency)
	fmt.Println("prediction below spoiler latency:", latency < stats.SpoilerLatency[2])
	// Output:
	// prediction above isolated latency: true
	// prediction below spoiler latency: true
}

// ExamplePredictor_PredictNew demonstrates the constant-time path for an
// ad-hoc template: one isolated execution, then a prediction with a
// KNN-estimated spoiler — no concurrent sampling at all.
func ExamplePredictor_PredictNew() {
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}

	plan := &contender.Plan{
		Root: contender.Op(contender.HashAggregate, 2e6, 100,
			contender.Op(contender.HashJoin, 15e6, 110,
				contender.Scan("date_dim", 365, 141),
				contender.Scan("store_sales", 20e6, 132))),
	}
	stats, err := wb.ProfileTemplate(901, plan) // the single isolated run
	if err != nil {
		log.Fatal(err)
	}
	latency, err := pred.PredictNew(stats, []int{71}, contender.SpoilerKNN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("got a positive prediction:", latency > 0)
	fmt.Println("slower than isolation:", latency > stats.IsolatedLatency)
	// Output:
	// got a positive prediction: true
	// slower than isolation: true
}

// ExamplePredictor_CQI shows the Concurrent Query Intensity metric: a mix
// whose members share all of the primary's fact scans has near-zero
// intensity, while disjoint I/O-heavy partners push it toward 1.
func ExamplePredictor_CQI() {
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}

	// T71 scans all three sales fact tables; T2's scans are a subset, so
	// its I/O is almost entirely shared with the primary.
	shared, err := pred.CQI(71, []int{2})
	if err != nil {
		log.Fatal(err)
	}
	// T25 spends most of its I/O on store_returns, which T71 does not
	// touch: direct competition for the disk.
	disjoint, err := pred.CQI(71, []int{25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shared mix is less intense:", shared < disjoint)
	// Output:
	// shared mix is less intense: true
}

// ExamplePredictor_ScheduleBatch orders a query batch with the
// interaction-aware policy and forecasts its completion timeline.
func ExamplePredictor_ScheduleBatch() {
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}

	batch := []int{71, 2, 62, 26}
	order, jobs, makespan, err := pred.ScheduleBatch(batch, 2, contender.PolicyInteractionAware)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("order is a permutation:", len(order) == len(batch))
	fmt.Println("every job has a window:", len(jobs) == len(batch))
	fmt.Println("positive makespan:", makespan > 0)
	// Output:
	// order is a permutation: true
	// every job has a window: true
	// positive makespan: true
}

// ExampleTrainFromSystem trains Contender through the System integration
// interface — the path a real-DBMS deployment would take. Here the
// simulator-backed reference implementation stands in for the database.
func ExampleTrainFromSystem() {
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	sys := wb.System() // implement contender.System for your own DBMS

	res, err := contender.TrainFromSystem(sys, contender.TrainConfig{MPLs: []int{2}})
	if err != nil {
		log.Fatal(err)
	}
	latency, err := res.Predictor.PredictKnown(26, []int{62})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trained through the interface:", latency > 0)
	fmt.Println("full coverage:", res.Report.Coverage() == 1)
	// Output:
	// trained through the interface: true
	// full coverage: true
}

// ExampleWithObserver installs a recording observer on the whole
// pipeline: the sampling campaign, model fitting, and — inherited by
// the trained predictor — serving calls. With a single worker the
// recorded event order is fully deterministic.
func ExampleWithObserver() {
	rec := contender.NewRecordingObserver()
	wb, err := contender.NewWorkbench(
		contender.QuickSampling(),
		contender.WithWorkers(1),
		contender.WithObserver(rec),
	)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pred.PredictKnown(71, []int{2}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("campaign span closed:", rec.CountSpan(contender.SpanTrainCampaign) == 2)
	fmt.Println("every template profiled:", rec.CountSpan(contender.SpanTrainProfile) == 2*25)
	fmt.Println("fit span emitted:", rec.CountSpan(contender.SpanTrainFit) == 1)
	fmt.Println("serving span emitted:", rec.CountSpan(contender.SpanServePredictKnown) == 1)
	// Output:
	// campaign span closed: true
	// every template profiled: true
	// fit span emitted: true
	// serving span emitted: true
}

// ExampleWorkbench_MetricsSnapshot aggregates the event stream into
// counters and latency histograms and reads them in-process. The same
// Metrics value implements http.Handler for Prometheus scraping (see
// the -metrics-addr flag of the CLIs).
func ExampleWorkbench_MetricsSnapshot() {
	m := contender.NewMetrics()
	wb, err := contender.NewWorkbench(contender.QuickSampling(), contender.WithObserver(m))
	if err != nil {
		log.Fatal(err)
	}
	snap, ok := wb.MetricsSnapshot()
	if !ok {
		log.Fatal("no metrics observer installed")
	}
	campaigns := snap.Counter(`contender_spans_total{span="train.campaign"}`)
	profileLat := snap.Histogram(`contender_span_duration_seconds{span="train.profile"}`)
	fmt.Println("campaigns completed:", campaigns)
	fmt.Println("profile durations recorded:", profileLat.Count == 25)
	// Output:
	// campaigns completed: 1
	// profile durations recorded: true
}

// ExampleNewSlowLog wires a slow-operation log into training: any span
// at least as slow as the threshold is printed. A zero-duration
// threshold logs everything; production callers pick something like
// 100*time.Millisecond.
func ExampleNewSlowLog() {
	var buf strings.Builder
	slow := contender.NewSlowLog(&buf, time.Hour)
	// Compose it with metrics: both observe the same campaign.
	_, err := contender.NewWorkbench(
		contender.QuickSampling(),
		contender.WithObserver(contender.MultiObserver(slow, contender.NewMetrics())),
	)
	if err != nil {
		log.Fatal(err)
	}
	// The simulated campaign finishes in well under an hour, so nothing
	// crosses the (deliberately unreachable) threshold.
	fmt.Println("slow operations:", strings.Count(buf.String(), "SLOW"))
	// Output:
	// slow operations: 0
}

// ExampleParsePlan shows the compact plan notation for ad-hoc templates.
func ExampleParsePlan() {
	plan, err := contender.ParsePlan(
		"Sort:4e6:100(HashJoin:20e6:110(Scan:item:2e4:294, Scan:catalog_sales:3e6:60))")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("operators:", plan.Steps())
	// Output:
	// operators: 4
}
