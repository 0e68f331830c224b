package contender

import (
	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/resilience"
)

// Resilience facade: the error taxonomy and retry policy the training
// pipeline speaks, re-exported so integrators never import the internal
// packages. A System implementation classifies its failures by wrapping
// them with TransientError/PermanentError/CorruptError (or by %w-ing the
// sentinels directly); the trainer then retries, quarantines, or resamples
// accordingly. Unclassified errors are treated as retryable.

// RetryPolicy is the exponential-backoff schedule applied around every
// sampling task when set with WithRetry (Workbench path) or on
// TrainConfig.Retry (System path). Jitter is derived deterministically
// from the seed and the task key, so reruns of a campaign wait the same
// schedule.
type RetryPolicy = resilience.RetryPolicy

// FaultConfig parameterizes the deterministic chaos of WithFaults
// (Workbench path) and TrainConfig.Faults (System path): per-attempt
// rates for transient errors, corrupt values, hangs and latency spikes,
// plus task-key prefixes that fail permanently ("template/26" kills one
// template's profiling, "mix/" every steady-state mix). The campaign
// consults the injector before each task attempt, so a faulted attempt
// never reaches the backend. See resilience.FaultConfig for field
// documentation.
type FaultConfig = resilience.FaultConfig

// FaultStats counts what the fault injector actually injected.
type FaultStats = resilience.FaultStats

// DefaultRetryPolicy returns the default schedule: 4 attempts, 50ms base
// delay doubling to a 2s cap, ±25% deterministic jitter.
func DefaultRetryPolicy() RetryPolicy { return resilience.Default() }

// Training-path sentinels. Test with errors.Is.
var (
	// ErrTransient marks a measurement failure worth retrying.
	ErrTransient = resilience.ErrTransient
	// ErrPermanent marks a failure retries cannot fix; the trainer fails
	// fast and quarantines the affected template, table, or mix.
	ErrPermanent = resilience.ErrPermanent
	// ErrCorruptMeasurement marks a call that returned values no real
	// measurement can produce (NaN, negative, wrong-length); the trainer
	// discards the sample and resamples under the retry budget.
	ErrCorruptMeasurement = resilience.ErrCorruptMeasurement
)

// Serving-path sentinels returned by PredictKnown/PredictBatch/PredictNew.
// Test with errors.Is.
var (
	// ErrUnknownTemplate: the primary template is not in the knowledge base.
	ErrUnknownTemplate = core.ErrUnknownTemplate
	// ErrEmptyMix: the concurrent mix is empty; prediction at MPL 1 is the
	// isolated latency, not a concurrency prediction.
	ErrEmptyMix = core.ErrEmptyMix
	// ErrUntrainedMPL: the mix's multiprogramming level (or the template at
	// that MPL) has no trained reference models.
	ErrUntrainedMPL = core.ErrUntrainedMPL
)

// CollectionReport summarizes a sampling campaign's resilience outcome —
// retries, resumed and quarantined tasks, planned and dropped mixes,
// coverage and the injected-fault tally — in the same shape on both entry
// points: Workbench.Resilience and TrainResult.Report.
type CollectionReport = experiments.CollectionReport

// TaskFailure records one quarantined sampling task.
type TaskFailure = experiments.TaskFailure

// TransientError wraps err as a retryable measurement failure.
func TransientError(err error) error { return resilience.Transient(err) }

// PermanentError wraps err as a non-retryable measurement failure.
func PermanentError(err error) error { return resilience.Permanent(err) }

// CorruptError wraps err as a corrupt-measurement failure.
func CorruptError(err error) error { return resilience.Corrupt(err) }
