package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"contender/internal/resilience"
)

// ExtChaos exercises the resilience layer end to end and quantifies its
// two guarantees on a live campaign:
//
//   - under transient faults, retries keep the collected training data
//     BYTE-IDENTICAL to a fault-free campaign with the same seed (retried
//     tasks rerun on fresh engines with the same derived seed, and faults
//     are injected before the simulator is consulted);
//   - under a permanent per-template fault, the campaign degrades coverage
//     (quarantines the template, drops its mixes) instead of aborting.
func ExtChaos(env *Env) (*Result, error) {
	noop := func(time.Duration) {}
	retry := resilience.Default()
	retry.Sleep = noop
	// A deeper budget than the default 4 attempts: at a 20% fault rate a
	// quadruple-fault streak on one site is likely somewhere in the
	// campaign, and this experiment demonstrates absorption, not loss.
	retry.MaxAttempts = 6

	base := Options{
		MPLs:          []int{2},
		LHSRuns:       1,
		SteadySamples: 3,
		IsolatedRuns:  2,
		Seed:          env.Opts.Seed + 13,
		Workers:       env.Opts.Workers,
	}
	clean, err := NewEnvWith(env.Workload, base)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos baseline: %w", err)
	}
	cleanSnap, err := json.Marshal(clean.Know.Snapshot())
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "ext-chaos",
		Title:  "Extension §8 — resilient training under injected faults",
		Paper:  "not in the paper: transient faults + retries must leave training data byte-identical; permanent faults degrade coverage instead of aborting",
		Header: []string{"Fault profile", "Injected", "Retries", "Coverage", "Dropped mixes", "Training data"},
	}
	res.AddRow("clean (baseline)", "0", "0", fmtPct(1), "0", "reference")

	for _, rate := range []float64{0.05, 0.10, 0.20} {
		opts := base
		opts.Retry = &retry
		opts.Faults = &resilience.FaultConfig{Seed: 101, TransientRate: rate, Sleep: noop}
		chaotic, err := NewEnvWith(env.Workload, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos at %.0f%%: %w", 100*rate, err)
		}
		snap, err := json.Marshal(chaotic.Know.Snapshot())
		if err != nil {
			return nil, err
		}
		r := chaotic.Resilience
		verdict := "identical to clean"
		identical := 1.0
		if string(snap) != string(cleanSnap) ||
			!reflect.DeepEqual(chaotic.Samples, clean.Samples) || r.Degraded() {
			verdict = "DIVERGED"
			identical = 0
		}
		label := fmt.Sprintf("%.0f%% transient", 100*rate)
		res.AddRow(label,
			fmt.Sprintf("%d", r.FaultStats.Injected()),
			fmt.Sprintf("%d", r.Retries),
			fmtPct(r.Coverage()),
			fmt.Sprintf("%d", r.DroppedMixes),
			verdict)
		res.SetMetric(fmt.Sprintf("identical/%.0f%%", 100*rate), identical)
		res.SetMetric(fmt.Sprintf("retries/%.0f%%", 100*rate), float64(r.Retries))
	}

	// One template's profiling fails on every attempt: the campaign must
	// finish on the remaining templates and report the lost coverage.
	victim := env.Workload.IDs()[0]
	opts := base
	opts.Retry = &retry
	opts.Faults = &resilience.FaultConfig{
		Seed:           101,
		PermanentSites: []string{fmt.Sprintf("template/%d", victim)},
		Sleep:          noop,
	}
	degraded, err := NewEnvWith(env.Workload, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos permanent fault: %w", err)
	}
	r := degraded.Resilience
	res.AddRow(fmt.Sprintf("permanent @ T%d", victim),
		fmt.Sprintf("%d", r.FaultStats.Injected()),
		fmt.Sprintf("%d", r.Retries),
		fmtPct(r.Coverage()),
		fmt.Sprintf("%d", r.DroppedMixes),
		fmt.Sprintf("degraded (%d/%d templates)", r.TrainedTemplates, r.TotalTemplates))
	res.SetMetric("coverage/permanent", r.Coverage())
	res.SetMetric("dropped_mixes/permanent", float64(r.DroppedMixes))

	res.Notes = append(res.Notes,
		"fault schedules are seed-deterministic; every transient row must read \"identical to clean\" — retried tasks rerun the same derived engine seed",
		"the permanent row quarantines one template's profiling at every attempt; its mixes are dropped and the rest of the campaign survives")
	return res, nil
}
