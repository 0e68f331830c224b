package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// The resilience contract of Env building, end to end: transient faults
// plus retries leave the collected data byte-identical; permanent faults
// quarantine and degrade; an interrupted checkpointed campaign resumes to
// byte-identical data; cancellation stops the pool promptly.

func chaosWorkload() *tpcds.Workload {
	return tpcds.NewWorkload().Subset([]int{2, 22, 25, 26, 61, 71})
}

func chaosOptions(workers int) Options {
	return Options{
		MPLs:          []int{2, 3},
		LHSRuns:       2,
		SteadySamples: 3,
		IsolatedRuns:  2,
		Seed:          7,
		Workers:       workers,
	}
}

func noSleepPolicy() *resilience.RetryPolicy {
	p := resilience.Default()
	p.Sleep = func(time.Duration) {}
	return &p
}

func envSnapshot(t *testing.T, env *Env) string {
	t.Helper()
	snap, err := json.Marshal(env.Know.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(snap)
}

// TestEnvChaosTransientByteIdentical is the acceptance property: a
// campaign under a 10% transient fault rate with retries enabled collects
// training data byte-identical to a fault-free campaign with the same
// seed — at both pool widths.
func TestEnvChaosTransientByteIdentical(t *testing.T) {
	clean, err := NewEnvWith(chaosWorkload(), chaosOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	cleanSnap := envSnapshot(t, clean)

	for _, workers := range []int{1, 4} {
		opts := chaosOptions(workers)
		opts.Retry = noSleepPolicy()
		opts.Faults = &resilience.FaultConfig{
			Seed:          11,
			TransientRate: 0.10,
			Sleep:         func(time.Duration) {},
		}
		env, err := NewEnvWith(chaosWorkload(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := envSnapshot(t, env); got != cleanSnap {
			t.Errorf("workers=%d: knowledge under transient faults differs from clean run", workers)
		}
		if !reflect.DeepEqual(env.Samples, clean.Samples) {
			t.Errorf("workers=%d: samples under transient faults differ from clean run", workers)
		}
		if env.Resilience.FaultStats.Transient == 0 {
			t.Errorf("workers=%d: fault injector never fired at 10%% rate", workers)
		}
		if env.Resilience.Retries == 0 {
			t.Errorf("workers=%d: retries must have rescued the injected faults", workers)
		}
		if env.Resilience.Degraded() {
			t.Errorf("workers=%d: transient faults must not degrade coverage: %+v", workers, env.Resilience)
		}
	}
}

// TestEnvPermanentFaultQuarantines: a template whose profiling fails
// permanently is quarantined — collection completes on the rest, the
// report shows the lost coverage, and no observation references the
// quarantined template.
func TestEnvPermanentFaultQuarantines(t *testing.T) {
	opts := chaosOptions(2)
	opts.Retry = noSleepPolicy()
	opts.Faults = &resilience.FaultConfig{
		Seed:           1,
		PermanentSites: []string{"template/26"},
		Sleep:          func(time.Duration) {},
	}
	env, err := NewEnvWith(chaosWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r := env.Resilience
	if !r.Degraded() {
		t.Fatalf("report must be degraded: %+v", r)
	}
	if r.TrainedTemplates != 5 || r.TotalTemplates != 6 {
		t.Fatalf("coverage %d/%d, want 5/6", r.TrainedTemplates, r.TotalTemplates)
	}
	if got := r.Coverage(); got <= 0.8 || got >= 0.9 {
		t.Fatalf("Coverage() = %g, want 5/6", got)
	}
	found := false
	for _, q := range r.Quarantined {
		if q.Key == "template/26" {
			found = true
			if !strings.Contains(q.Reason, "permanent") {
				t.Errorf("quarantine reason %q does not mention the permanent failure", q.Reason)
			}
		}
	}
	if !found {
		t.Fatalf("template/26 missing from quarantine list: %+v", r.Quarantined)
	}
	if _, ok := env.Know.Template(26); ok {
		t.Fatal("quarantined template must not enter the knowledge base")
	}
	if r.DroppedMixes == 0 {
		t.Fatal("mixes containing the quarantined template must be dropped")
	}
	for _, mpl := range []int{2, 3} {
		for _, o := range env.Observations(mpl) {
			if o.Primary == 26 {
				t.Fatalf("MPL %d: observation with quarantined primary survived", mpl)
			}
			for _, c := range o.Concurrent {
				if c == 26 {
					t.Fatalf("MPL %d: observation with quarantined concurrent survived", mpl)
				}
			}
		}
	}
}

// TestEnvTooFewSurvivorsErrors: quarantining all but one template aborts
// with a coverage error instead of training a degenerate predictor.
func TestEnvTooFewSurvivorsErrors(t *testing.T) {
	opts := chaosOptions(1)
	opts.Retry = noSleepPolicy()
	opts.Faults = &resilience.FaultConfig{
		Seed:           1,
		PermanentSites: []string{"template/2", "template/25", "template/26", "template/61", "template/71"},
		Sleep:          func(time.Duration) {},
	}
	_, err := NewEnvWith(chaosWorkload(), opts)
	if err == nil || !strings.Contains(err.Error(), "survived sampling") {
		t.Fatalf("err = %v, want too-few-survivors error", err)
	}
}

// TestEnvCheckpointResume kills a checkpointed campaign at several task
// boundaries, resumes it, and requires the resumed environment to be
// byte-identical to an uninterrupted build — the checkpoint/resume
// acceptance property.
func TestEnvCheckpointResume(t *testing.T) {
	clean, err := NewEnvWith(chaosWorkload(), chaosOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	cleanSnap := envSnapshot(t, clean)

	for _, killAfter := range []int{1, 5, 13, 29} {
		path := filepath.Join(t.TempDir(), "env.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		opts := chaosOptions(1)
		opts.CheckpointPath = path
		done := 0
		opts.onTaskDone = func(string) {
			if done++; done == killAfter {
				cancel()
			}
		}
		_, err := NewEnvWithContext(ctx, chaosWorkload(), opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killAfter=%d: err = %v, want context.Canceled", killAfter, err)
		}
		if _, serr := os.Stat(path); serr != nil {
			t.Fatalf("killAfter=%d: checkpoint file missing after interrupt: %v", killAfter, serr)
		}

		resumeOpts := chaosOptions(1)
		resumeOpts.CheckpointPath = path
		env, err := NewEnvWith(chaosWorkload(), resumeOpts)
		if err != nil {
			t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
		}
		if env.Resilience.Resumed != killAfter {
			t.Errorf("killAfter=%d: resumed %d tasks, want %d", killAfter, env.Resilience.Resumed, killAfter)
		}
		if got := envSnapshot(t, env); got != cleanSnap {
			t.Errorf("killAfter=%d: resumed knowledge differs from uninterrupted build", killAfter)
		}
		if !reflect.DeepEqual(env.Samples, clean.Samples) {
			t.Errorf("killAfter=%d: resumed samples differ from uninterrupted build", killAfter)
		}
		if env.SimulatedSeconds != clean.SimulatedSeconds {
			t.Errorf("killAfter=%d: resumed time tallies differ: %+v vs %+v",
				killAfter, env.SimulatedSeconds, clean.SimulatedSeconds)
		}
		if _, serr := os.Stat(path); serr == nil {
			t.Errorf("killAfter=%d: checkpoint must be removed after a completed campaign", killAfter)
		}
	}
}

// TestEnvCheckpointFingerprintGuard: resuming under different options is
// refused with an actionable error instead of silently mixing designs.
func TestEnvCheckpointFingerprintGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts := chaosOptions(1)
	opts.CheckpointPath = path
	done := 0
	opts.onTaskDone = func(string) {
		if done++; done == 2 {
			cancel()
		}
	}
	if _, err := NewEnvWithContext(ctx, chaosWorkload(), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt failed: %v", err)
	}
	cancel()

	other := chaosOptions(1)
	other.Seed = 8 // different campaign
	other.CheckpointPath = path
	_, err := NewEnvWith(chaosWorkload(), other)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

// TestEnvContextCancelStopsPromptly: after cancellation no further tasks
// start, at both pool widths.
func TestEnvContextCancelStopsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := chaosOptions(workers)
		var mu sync.Mutex
		done := 0
		opts.onTaskDone = func(string) {
			mu.Lock()
			if done++; done == 3 {
				cancel()
			}
			mu.Unlock()
		}
		_, err := NewEnvWithContext(ctx, chaosWorkload(), opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Already-running tasks may finish, but nothing new starts: the
		// hook fires at most once more per in-flight worker.
		mu.Lock()
		finished := done
		mu.Unlock()
		if finished > 3+workers {
			t.Errorf("workers=%d: %d tasks completed after cancellation", workers, finished-3)
		}
	}
}

// chaosCampaign is the engine run NewEnvWith prepares for the chaos
// campaign under opts.
func chaosCampaign(opts Options) *campaign {
	opts = opts.withDefaults()
	cfg := sim.DefaultConfig().WithSeed(opts.Seed)
	env := &Env{Workload: chaosWorkload(), Engine: sim.NewEngine(cfg), baseCfg: cfg}
	return env.campaign(opts)
}

// writeCheckpoint writes a current-version checkpoint for the chaos
// campaign holding the given task entries.
func writeCheckpoint(t *testing.T, path string, opts Options, tasks map[string]entry) {
	t.Helper()
	state := checkpointState{Version: checkpointVersion, Fingerprint: chaosCampaign(opts).fingerprint(), Tasks: tasks}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEnvCheckpointRejectsMalformedEntry: a replayed entry passes the
// validation a fresh measurement does. A two-query mix recorded with one
// latency is refused with a classified error naming the file and the
// task, never an index panic.
func TestEnvCheckpointRejectsMalformedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.ckpt")
	opts := chaosOptions(1)
	opts.CheckpointPath = path
	var design task
	for _, tk := range chaosCampaign(opts).plan {
		if tk.key == "mix/2/0" {
			design = tk
		}
	}
	writeCheckpoint(t, path, opts, map[string]entry{"mix/2/0": {Mix: design.mix, Lats: []float64{1}}})
	_, err := NewEnvWith(chaosWorkload(), opts)
	if !errors.Is(err, resilience.ErrPermanent) || !errors.Is(err, resilience.ErrCorruptMeasurement) {
		t.Fatalf("err = %v, want a permanent corrupt-measurement error", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "mix/2/0") {
		t.Errorf("error %q must name the file and the task", err)
	}
}

// TestEnvCheckpointRefusesOldVersion: a file in a previous checkpoint
// format is refused with the classified version error.
func TestEnvCheckpointRefusesOldVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.ckpt")
	if err := os.WriteFile(path, []byte(`{"version":1,"fingerprint":"x","scans":{"scan/store_sales":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := chaosOptions(1)
	opts.CheckpointPath = path
	_, err := NewEnvWith(chaosWorkload(), opts)
	if !errors.Is(err, resilience.ErrPermanent) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("err = %v, want the classified version error", err)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader and
// resumes the chaos campaign from them: the outcome must be a classified
// error or a completed campaign, never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts := chaosOptions(1)
	opts.CheckpointPath = valid
	// Interrupted just after the first mix (7 scans, 6 templates), and
	// re-encoded compactly: small seeds keep minimization cheap, since
	// every accepted input runs a campaign.
	done := 0
	opts.onTaskDone = func(string) {
		if done++; done == 14 {
			cancel()
		}
	}
	if _, err := NewEnvWithContext(ctx, chaosWorkload(), opts); !errors.Is(err, context.Canceled) {
		f.Fatalf("interrupt failed: %v", err)
	}
	cancel()
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	var state checkpointState
	if err := json.Unmarshal(raw, &state); err != nil {
		f.Fatal(err)
	}
	data, _ := json.Marshal(state)
	short := state.Tasks["mix/2/0"]
	short.Lats = short.Lats[:1]
	state.Tasks["mix/2/0"] = short
	shortLats, _ := json.Marshal(state)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(shortLats)
	f.Add([]byte(`{"version":1,"fingerprint":"x"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := chaosOptions(1)
		opts.CheckpointPath = path
		_, err := NewEnvWith(chaosWorkload(), opts)
		if err != nil && !errors.Is(err, resilience.ErrPermanent) && !errors.Is(err, resilience.ErrTransient) &&
			!errors.Is(err, resilience.ErrCorruptMeasurement) {
			t.Fatalf("unclassified error: %v", err)
		}
	})
}
