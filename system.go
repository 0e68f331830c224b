package contender

import (
	"context"
	"fmt"

	"contender/internal/experiments"
	"contender/internal/obs"
)

// Integration interface: Contender's models consume only a handful of
// observables — isolated latencies, procfs-style I/O time, plan scan sets,
// spoiler latencies, steady-state mix latencies. System captures exactly
// that contract, so the framework can be trained against any database
// that can run queries and a spoiler process: implement System for your
// DBMS and call TrainFromSystem. The bundled simulator is the reference
// implementation (Workbench.System). The contract is defined beside the
// one campaign engine in internal/experiments and re-exported here.
type (
	// Measurement is one observed query execution: LatencySeconds of
	// wall-clock time, IOSeconds of it spent on disk I/O.
	Measurement = experiments.Measurement
	// TemplateMeta describes a workload template to the trainer: its
	// identity plus the plan-derived features Contender's models use.
	TemplateMeta = experiments.TemplateMeta
	// System is the measurement backend Contender trains against.
	// Implementations must be deterministic per seed where possible, but
	// the trainer tolerates real-world variance.
	System = experiments.System
)

// TrainConfig is the System path's whole configuration: TrainFromSystem's
// sampling design, resilience and instrumentation. The zero value uses
// the paper's protocol at MPLs 2–3 with fail-fast error handling.
type TrainConfig struct {
	// MPLs to sample and train for (default 2, 3).
	MPLs []int
	// LHSRuns is the number of disjoint Latin Hypercube designs per
	// MPL ≥ 3 (default 2).
	LHSRuns int
	// SteadySamples per stream in each steady-state mix (default 3).
	SteadySamples int
	// IsolatedRuns averaged into l_min and p_t (default 2).
	IsolatedRuns int
	// Seed drives the sampling designs.
	Seed int64
	// Retry, when set, wraps every sampling task — one table's scan, one
	// template's isolated and spoiler runs, one mix — in the policy's
	// retry/backoff loop and switches the trainer from fail-fast to
	// quarantine-and-degrade: a task that exhausts the budget (or fails
	// permanently) is dropped and training continues on the rest, with
	// the loss reported in TrainResult.Report. A retried task is
	// re-measured from its first measurement. Nil fails fast: the first
	// error aborts.
	Retry *RetryPolicy
	// CheckpointPath, when non-empty, persists every resolved task to this
	// file (atomically, as each one resolves) and resumes from it on the
	// next run with an identical configuration; a task interrupted
	// mid-flight is re-measured from its first measurement. Replayed
	// entries pass the same validation as fresh measurements. A resumed
	// campaign yields a predictor byte-identical to an uninterrupted one
	// as long as the backend answers each measurement the same way. The
	// file is removed when the campaign completes.
	CheckpointPath string
	// Faults, when set, drives the campaign engine's fault injector —
	// deterministic chaos for validating a retry policy against a real
	// integration. Faults are decided per task attempt, keyed by task
	// ("template/26" selects one template's profiling), before the System
	// is consulted, so a faulted attempt never reaches the backend. The
	// injected-fault tally is reported in CollectionReport.FaultStats.
	Faults *FaultConfig
	// Observer, when set, receives the campaign's structured event stream:
	// a train.campaign span around the sampling campaign, train.scan/
	// train.profile/train.mix spans per task, train.isolated/train.spoiler
	// spans per measurement inside a profile, a train.fit span around
	// model fitting, and train.retry/
	// train.quarantine/train.checkpoint/train.resume points from the
	// resilience machinery. Observation never changes what is measured, and
	// a panicking observer is isolated at the emit site. The trained
	// predictor inherits the observer for its serve.* spans.
	Observer Observer
	// Quality, when set, is inherited by the trained predictor so its
	// Feedback calls stream per-template accuracy statistics and drift
	// states into the aggregator. Training itself never consults it.
	Quality *Quality
}

// envOptions maps the System-path config onto the campaign engine's
// options.
func (c TrainConfig) envOptions() experiments.Options {
	return experiments.Options{
		MPLs:           c.MPLs,
		LHSRuns:        c.LHSRuns,
		SteadySamples:  c.SteadySamples,
		IsolatedRuns:   c.IsolatedRuns,
		Seed:           c.Seed,
		Retry:          c.Retry,
		Faults:         c.Faults,
		CheckpointPath: c.CheckpointPath,
		Observer:       obs.Isolate(c.Observer),
	}
}

func (c TrainConfig) withDefaults() TrainConfig {
	if len(c.MPLs) == 0 {
		c.MPLs = []int{2, 3}
	}
	if c.LHSRuns <= 0 {
		c.LHSRuns = 2
	}
	if c.SteadySamples <= 0 {
		c.SteadySamples = 3
	}
	if c.IsolatedRuns <= 0 {
		c.IsolatedRuns = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// TrainResult is a trained predictor plus the campaign's resilience report.
type TrainResult struct {
	Predictor *Predictor
	Report    CollectionReport
}

// TrainFromSystem runs Contender's full training pipeline against an
// arbitrary measurement backend: measure per-table scan times, profile
// every template in isolation and under the spoiler, sample concurrent
// mixes (exhaustive pairs at MPL 2, LHS designs above), and fit the
// reference QS models. The campaign runs on the same engine as the
// Workbench's, one task at a time, and reports on the same
// CollectionReport. It is TrainFromSystemContext without cancellation.
func TrainFromSystem(sys System, cfg TrainConfig) (*TrainResult, error) {
	return TrainFromSystemContext(context.Background(), sys, cfg)
}

// TrainFromSystemContext is TrainFromSystem with cancellation. The context
// is honored between tasks, between the measurements inside a task, and
// during retry backoff; cancelling returns ctx.Err() with every completed
// task already persisted when cfg.CheckpointPath is set, so the campaign
// can be resumed. With cfg.Retry set, failures are retried and then
// quarantined rather than aborting; the report describes the degradation.
func TrainFromSystemContext(ctx context.Context, sys System, cfg TrainConfig) (*TrainResult, error) {
	cfg = cfg.withDefaults()
	c, err := experiments.CollectFrom(ctx, sys, cfg.envOptions())
	if err != nil {
		return nil, fmt.Errorf("contender: training from system: %w", err)
	}
	inner, err := fit(c.Know, c.AllObservations(), obs.Isolate(cfg.Observer), cfg.Quality)
	if err != nil {
		return nil, err
	}
	return &TrainResult{Predictor: &Predictor{inner: inner}, Report: c.Resilience}, nil
}

// System returns the simulator-backed reference implementation of the
// System interface, measuring the workbench's workload on its host.
func (w *Workbench) System() System {
	return experiments.SimSystem(w.env.Workload, w.env.Engine)
}
