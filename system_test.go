package contender

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"contender/internal/experiments"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

func TestTrainFromSimSystem(t *testing.T) {
	wb, _ := testWorkbench(t)
	sys := wb.System()

	// The interface exposes the full workload.
	metas := sys.Templates()
	if len(metas) != 25 {
		t.Fatalf("%d templates via System", len(metas))
	}
	if len(sys.FactTables()) != 7 {
		t.Fatal("fact tables missing")
	}

	res, err := TrainFromSystem(sys, TrainConfig{MPLs: []int{2}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Predictor
	// The system-trained predictor predicts a mix close to the simulated
	// ground truth.
	mix := []int{26, 62}
	estimate, err := pred.PredictKnown(mix[0], mix[1:])
	if err != nil {
		t.Fatal(err)
	}
	truth, err := wb.Simulate(mix)
	if err != nil {
		t.Fatal(err)
	}
	if rel := abs(truth[0]-estimate) / truth[0]; rel > 0.5 {
		t.Fatalf("prediction %g vs truth %g (%.0f%% off)", estimate, truth[0], 100*rel)
	}
	// And supports persistence like any other predictor.
	path := t.TempDir() + "/sys.json"
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestSimSystemErrors(t *testing.T) {
	wb, _ := testWorkbench(t)
	sys := wb.System()
	if _, err := sys.RunIsolated(12345); err == nil {
		t.Fatal("unknown template must error")
	}
	if _, err := sys.RunSpoiler(12345, 2); err == nil {
		t.Fatal("unknown template must error")
	}
	if _, err := sys.RunMix([]int{12345}, 2); err == nil {
		t.Fatal("unknown template must error")
	}
	if _, err := sys.ScanSeconds("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
}

// ---------------------------------------------------------------------------
// Resilience matrix: the trainer against the engine's deterministic chaos
// (TrainConfig.Faults) and against a backend that returns corrupt values.
// ---------------------------------------------------------------------------

// freshChaosSystem builds an independent simulator-backed System on a small
// workload. Each training run gets its own engine so runs are comparable:
// the substrate shares one RNG stream across measurements, and byte-identity
// claims rest on every run issuing the same substrate call sequence.
func freshChaosSystem(seed int64) System {
	w := tpcds.NewWorkload().Subset([]int{2, 22, 25, 26, 61, 71})
	return experiments.SimSystem(w, sim.NewEngine(sim.DefaultConfig().WithSeed(seed)))
}

func chaosTrainConfig() TrainConfig {
	return TrainConfig{MPLs: []int{2, 3}, LHSRuns: 2, SteadySamples: 3, IsolatedRuns: 2, Seed: 9}
}

func noSleepRetry() *RetryPolicy {
	p := DefaultRetryPolicy()
	p.Sleep = func(time.Duration) {}
	return &p
}

func predictorBytes(t *testing.T, p *Predictor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTrainFromSystemChaosByteIdentical is the acceptance property at the
// System boundary: transient and corrupt faults, rescued by retries, leave
// the trained predictor byte-identical to a fault-free run — a faulted
// task attempt never reaches the backend, so its RNG stream is
// unperturbed.
func TestTrainFromSystemChaosByteIdentical(t *testing.T) {
	cleanRes, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := predictorBytes(t, cleanRes.Predictor)

	for name, fc := range map[string]FaultConfig{
		"10% transient": {Seed: 11, TransientRate: 0.10, Sleep: func(time.Duration) {}},
		"8% corrupt":    {Seed: 3, CorruptRate: 0.08, Sleep: func(time.Duration) {}},
	} {
		cfg := chaosTrainConfig()
		cfg.Retry = noSleepRetry()
		cfg.Faults = &fc
		res, err := TrainFromSystemContext(context.Background(), freshChaosSystem(5), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Report.FaultStats == nil || res.Report.FaultStats.Injected() == 0 {
			t.Fatalf("%s: injector never fired", name)
		}
		if res.Report.Retries == 0 {
			t.Errorf("%s: retries must have rescued the injected faults", name)
		}
		if res.Report.Degraded() {
			t.Errorf("%s: coverage must not degrade: %+v", name, res.Report)
		}
		if predictorBytes(t, res.Predictor) != clean {
			t.Errorf("%s: predictor differs from the fault-free run", name)
		}
	}
}

// mixRecorder records every mix the backend is asked to run.
type mixRecorder struct {
	System
	mixes [][]int
}

func (m *mixRecorder) RunMix(mix []int, samples int) ([]float64, error) {
	m.mixes = append(m.mixes, append([]int(nil), mix...))
	return m.System.RunMix(mix, samples)
}

// TestTrainFromSystemPermanentQuarantines: a template whose profiling
// fails on every attempt is quarantined; training completes on the rest,
// the mixes containing it are dropped without reaching the backend, and
// the report carries the degradation.
func TestTrainFromSystemPermanentQuarantines(t *testing.T) {
	cfg := chaosTrainConfig()
	cfg.Retry = noSleepRetry()
	cfg.Faults = &FaultConfig{
		Seed:           1,
		PermanentSites: []string{"template/26"},
		Sleep:          func(time.Duration) {},
	}
	sys := &mixRecorder{System: freshChaosSystem(5)}
	res, err := TrainFromSystemContext(context.Background(), sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range sys.mixes {
		for _, id := range mix {
			if id == 26 {
				t.Fatalf("mix %v with the quarantined template reached the backend", mix)
			}
		}
	}
	r := res.Report
	if !r.Degraded() {
		t.Fatalf("report must be degraded: %+v", r)
	}
	if r.TrainedTemplates != 5 || r.TotalTemplates != 6 {
		t.Fatalf("coverage %d/%d, want 5/6", r.TrainedTemplates, r.TotalTemplates)
	}
	if len(r.Quarantined) != 1 || r.Quarantined[0].Key != "template/26" {
		t.Fatalf("quarantine records: %+v", r.Quarantined)
	}
	if !strings.Contains(r.Quarantined[0].Reason, "permanent") {
		t.Errorf("quarantine reason %q does not mention the permanent failure", r.Quarantined[0].Reason)
	}
	if r.DroppedMixes == 0 || r.PlannedMixes != len(sys.mixes)+r.DroppedMixes {
		t.Fatalf("planned %d, measured %d, dropped %d: every planned mix is measured or dropped", r.PlannedMixes, len(sys.mixes), r.DroppedMixes)
	}
	// The quarantined template is absent; the survivors still predict.
	if _, err := res.Predictor.PredictKnown(26, []int{2}); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("PredictKnown on quarantined template: %v, want ErrUnknownTemplate", err)
	}
	if _, err := res.Predictor.PredictKnown(2, []int{22}); err != nil {
		t.Errorf("surviving template must predict: %v", err)
	}
}

// TestEntryPointsReportOneCampaign: a workbench and TrainFromSystem over
// its System run the same design under the same retry policy and faults,
// and report the campaign identically — quarantine keys and reasons,
// retries, planned and dropped mixes, and the injected-fault tally.
func TestEntryPointsReportOneCampaign(t *testing.T) {
	faults := FaultConfig{Seed: 7, TransientRate: 0.10, PermanentSites: []string{"template/26"}, Sleep: func(time.Duration) {}}
	retry := noSleepRetry()
	wb, err := NewWorkbench(QuickSampling(), WithWorkers(1), WithRetry(*retry), WithFaults(faults))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainFromSystem(wb.System(), TrainConfig{Retry: retry, Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	want := wb.Resilience()
	if len(want.Quarantined) != 1 || want.Quarantined[0].Key != "template/26" ||
		want.Retries == 0 || want.DroppedMixes == 0 || want.PlannedMixes <= want.DroppedMixes ||
		want.FaultStats == nil || want.FaultStats.Permanent == 0 || want.FaultStats.Transient == 0 {
		t.Fatalf("workbench report %+v does not show the configured faults", want)
	}
	if got := res.Report; !reflect.DeepEqual(got, want) {
		t.Errorf("System path report\n%+v\nwant the workbench's\n%+v", got, want)
	}
}

// TestTrainFromSystemNoRetryFailsFast preserves the fail-fast contract:
// with no retry policy, the first failure aborts training.
func TestTrainFromSystemNoRetryFailsFast(t *testing.T) {
	cfg := chaosTrainConfig()
	cfg.Faults = &FaultConfig{Seed: 2, TransientRate: 1, Sleep: func(time.Duration) {}}
	_, err := TrainFromSystem(freshChaosSystem(5), cfg)
	if err == nil {
		t.Fatal("fail-fast mode must surface the first fault")
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want the transient sentinel preserved", err)
	}
}

// TestTrainFromSystemParity pins the predictor bytes of two fault-free
// System-path campaigns. The simulator behind both shares one RNG stream
// across measurements, so the pins hold only while the engine issues the
// backend calls in the same order: scans, then each template's isolated
// and spoiler runs, then the mixes in design order.
func TestTrainFromSystemParity(t *testing.T) {
	fnv1a := func(s string) string {
		h := fnv.New64a()
		h.Write([]byte(s))
		return fmt.Sprintf("%016x", h.Sum64())
	}
	res, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv1a(predictorBytes(t, res.Predictor)); got != "d4ddcf1418d3b0f7" {
		t.Errorf("chaos system predictor checksum %s, want d4ddcf1418d3b0f7", got)
	}
	wb, err := NewWorkbench(QuickSampling())
	if err != nil {
		t.Fatal(err)
	}
	if res, err = TrainFromSystem(wb.System(), TrainConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := fnv1a(predictorBytes(t, res.Predictor)); got != "c54153e713b904c2" {
		t.Errorf("workbench system predictor checksum %s, want c54153e713b904c2", got)
	}
}

// keyedSystem answers every call from a fresh simulator engine seeded by
// the call itself, so a re-measurement returns exactly the first value
// whatever came before it.
type keyedSystem struct{ w *tpcds.Workload }

func (k keyedSystem) at(call string) System {
	return experiments.SimSystem(k.w, sim.NewEngine(sim.DefaultConfig().WithSeed(sim.DeriveSeed(5, call))))
}

func (k keyedSystem) Templates() []TemplateMeta { return k.at("").Templates() }
func (k keyedSystem) FactTables() []string      { return k.at("").FactTables() }
func (k keyedSystem) ScanSeconds(table string) (float64, error) {
	return k.at("scan/" + table).ScanSeconds(table)
}
func (k keyedSystem) RunIsolated(id int) (Measurement, error) {
	return k.at(fmt.Sprintf("isolated/%d", id)).RunIsolated(id)
}
func (k keyedSystem) RunSpoiler(id, mpl int) (Measurement, error) {
	return k.at(fmt.Sprintf("spoiler/%d/%d", id, mpl)).RunSpoiler(id, mpl)
}
func (k keyedSystem) RunMix(mix []int, samples int) ([]float64, error) {
	return k.at(fmt.Sprintf("mix/%v", mix)).RunMix(mix, samples)
}

// corruptSystem returns a value no real execution produces whenever bad
// selects the call, without consulting the backend: a zero scan time, a
// NaN isolated latency, a negative spoiler latency, a short mix result.
type corruptSystem struct {
	System
	bad func(call string) bool
}

func (c corruptSystem) ScanSeconds(table string) (float64, error) {
	if c.bad("scan/" + table) {
		return 0, nil
	}
	return c.System.ScanSeconds(table)
}

func (c corruptSystem) RunIsolated(id int) (Measurement, error) {
	if c.bad(fmt.Sprintf("isolated/%d", id)) {
		return Measurement{LatencySeconds: math.NaN()}, nil
	}
	return c.System.RunIsolated(id)
}

func (c corruptSystem) RunSpoiler(id, mpl int) (Measurement, error) {
	if c.bad(fmt.Sprintf("spoiler/%d", id)) {
		return Measurement{LatencySeconds: -1}, nil
	}
	return c.System.RunSpoiler(id, mpl)
}

func (c corruptSystem) RunMix(mix []int, samples int) ([]float64, error) {
	if c.bad(fmt.Sprintf("mix/%v", mix)) {
		return make([]float64, len(mix)-1), nil
	}
	return c.System.RunMix(mix, samples)
}

// TestTrainFromSystemValidatesMeasurements: the engine rejects corrupt
// values from any backend. Returned once per kind of call, each is
// resampled by the retry and the predictor equals a clean run; returned
// on every attempt, the unit is quarantined under Retry, and training
// fails fast with ErrCorruptMeasurement without it.
func TestTrainFromSystemValidatesMeasurements(t *testing.T) {
	inner := keyedSystem{tpcds.NewWorkload().Subset([]int{2, 22, 25, 26, 61, 71})}
	cleanRes, err := TrainFromSystem(inner, chaosTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := predictorBytes(t, cleanRes.Predictor)

	seen := map[string]bool{}
	once := corruptSystem{inner, func(call string) bool {
		kind, _, _ := strings.Cut(call, "/")
		if seen[kind] {
			return false
		}
		seen[kind] = true
		return true
	}}
	cfg := chaosTrainConfig()
	cfg.Retry = noSleepRetry()
	res, err := TrainFromSystem(once, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || res.Report.Retries != 4 || res.Report.Degraded() {
		t.Fatalf("corrupted %v, report %+v: want four kinds each rescued by one retry", seen, res.Report)
	}
	if predictorBytes(t, res.Predictor) != clean {
		t.Error("predictor after resampled corrupt values differs from the clean run")
	}

	for _, tc := range []struct {
		call  string
		check func(CollectionReport) bool
	}{
		{"scan/store_sales", func(r CollectionReport) bool {
			return len(r.Quarantined) == 1 && r.Quarantined[0].Key == "scan/store_sales" && r.TrainedTemplates == 6
		}},
		{"isolated/26", func(r CollectionReport) bool {
			return len(r.Quarantined) == 1 && r.Quarantined[0].Key == "template/26"
		}},
		{"spoiler/26", func(r CollectionReport) bool {
			return len(r.Quarantined) == 1 && r.Quarantined[0].Key == "template/26"
		}},
		{"mix/[2 22]", func(r CollectionReport) bool { return r.DroppedMixes == 1 && r.TrainedTemplates == 6 }},
	} {
		always := corruptSystem{inner, func(call string) bool { return call == tc.call }}
		cfg := chaosTrainConfig()
		cfg.Retry = noSleepRetry()
		res, err := TrainFromSystem(always, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.call, err)
		}
		if !tc.check(res.Report) {
			t.Errorf("%s: report %+v does not quarantine the unit", tc.call, res.Report)
		}
		if _, err := TrainFromSystem(always, chaosTrainConfig()); !errors.Is(err, ErrCorruptMeasurement) {
			t.Errorf("%s: without Retry err = %v, want ErrCorruptMeasurement", tc.call, err)
		}
	}
}

// cancelAfterSystem cancels a context after n successful measurement calls,
// simulating an operator hitting Ctrl-C mid-campaign.
type cancelAfterSystem struct {
	System
	calls  int
	after  int
	cancel context.CancelFunc
}

func (c *cancelAfterSystem) tick() {
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
}

func (c *cancelAfterSystem) ScanSeconds(table string) (float64, error) {
	c.tick()
	return c.System.ScanSeconds(table)
}

func (c *cancelAfterSystem) RunIsolated(id int) (Measurement, error) {
	c.tick()
	return c.System.RunIsolated(id)
}

func (c *cancelAfterSystem) RunSpoiler(id, mpl int) (Measurement, error) {
	c.tick()
	return c.System.RunSpoiler(id, mpl)
}

func (c *cancelAfterSystem) RunMix(mix []int, samples int) ([]float64, error) {
	c.tick()
	return c.System.RunMix(mix, samples)
}

// TestTrainFromSystemCheckpointResume interrupts a checkpointed campaign
// mid-flight, refuses a resume under different flags, then resumes properly
// and requires a predictor byte-identical to an uninterrupted run. The
// resumed run reuses the same System instance — a real backend keeps its
// state across the operator's retry, and the simulator models that with its
// persistent RNG stream.
func TestTrainFromSystemCheckpointResume(t *testing.T) {
	cleanRes, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := predictorBytes(t, cleanRes.Predictor)

	path := t.TempDir() + "/train.ckpt"
	inner := freshChaosSystem(5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := chaosTrainConfig()
	cfg.CheckpointPath = path
	_, err = TrainFromSystemContext(ctx, &cancelAfterSystem{System: inner, after: 7, cancel: cancel}, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("checkpoint missing after interrupt: %v", serr)
	}

	// Different flags must be refused, not silently mixed in.
	other := cfg
	other.Seed = 10
	if _, err := TrainFromSystemContext(context.Background(), inner, other); err == nil ||
		!strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}

	res, err := TrainFromSystemContext(context.Background(), inner, cfg)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if res.Report.Resumed == 0 {
		t.Error("resumed run replayed no measurements")
	}
	if predictorBytes(t, res.Predictor) != clean {
		t.Error("resumed predictor differs from an uninterrupted run")
	}
	if _, serr := os.Stat(path); serr == nil {
		t.Error("checkpoint must be removed after a completed campaign")
	}
}

// TestTrainFromSystemCheckpointRejectsMalformedEntry: on the System path
// too, a replayed entry passes the validation a fresh measurement does. A
// two-query mix recorded with one latency is refused with a classified
// error naming the file and the task, never an index panic.
func TestTrainFromSystemCheckpointRejectsMalformedEntry(t *testing.T) {
	path := t.TempDir() + "/train.ckpt"
	cfg := chaosTrainConfig()
	cfg.CheckpointPath = path
	// 7 scans and 6 templates × 4 runs take 31 calls; two mixes follow.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := TrainFromSystemContext(ctx, &cancelAfterSystem{System: freshChaosSystem(5), after: 33, cancel: cancel}, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(raw, &state); err != nil {
		t.Fatal(err)
	}
	mix := state["tasks"].(map[string]any)["mix/2/0"].(map[string]any)
	mix["lats"] = mix["lats"].([]any)[:1]
	if raw, err = json.Marshal(state); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = TrainFromSystem(freshChaosSystem(5), cfg)
	if !errors.Is(err, ErrPermanent) || !errors.Is(err, ErrCorruptMeasurement) {
		t.Fatalf("err = %v, want a permanent corrupt-measurement error", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "mix/2/0") {
		t.Errorf("error %q must name the file and the task", err)
	}
}

// tinySystem has too few templates.
type tinySystem struct{ System }

func (tinySystem) Templates() []TemplateMeta { return []TemplateMeta{{ID: 1}} }

func TestTrainFromSystemTooSmall(t *testing.T) {
	wb, _ := testWorkbench(t)
	if _, err := TrainFromSystem(tinySystem{wb.System()}, TrainConfig{}); err == nil {
		t.Fatal("expected error for tiny workload")
	}
}

// Ensure the System interface stays implementable by external code: a
// compile-time check with a standalone implementation.
type externalSystem struct{}

func (externalSystem) Templates() []TemplateMeta           { return nil }
func (externalSystem) FactTables() []string                { return nil }
func (externalSystem) ScanSeconds(string) (float64, error) { return 0, fmt.Errorf("x") }
func (externalSystem) RunIsolated(int) (Measurement, error) {
	return Measurement{}, fmt.Errorf("x")
}
func (externalSystem) RunSpoiler(int, int) (Measurement, error) {
	return Measurement{}, fmt.Errorf("x")
}
func (externalSystem) RunMix([]int, int) ([]float64, error) { return nil, fmt.Errorf("x") }

var _ System = externalSystem{}
