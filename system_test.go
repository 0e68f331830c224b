package contender

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

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
// Resilience matrix: the trainer against FaultSystem's deterministic chaos.
// ---------------------------------------------------------------------------

// freshChaosSystem builds an independent simulator-backed System on a small
// workload. Each training run gets its own engine so runs are comparable:
// the substrate shares one RNG stream across measurements, and byte-identity
// claims rest on every run issuing the same substrate call sequence.
func freshChaosSystem(seed int64) System {
	w := tpcds.NewWorkload().Subset([]int{2, 22, 25, 26, 61, 71})
	return &simSystem{workload: w, engine: sim.NewEngine(sim.DefaultConfig().WithSeed(seed))}
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
// the trained predictor byte-identical to a fault-free run — faulted calls
// never reach the substrate, so its RNG stream is unperturbed.
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
		fs := NewFaultSystem(freshChaosSystem(5), fc)
		cfg := chaosTrainConfig()
		cfg.Retry = noSleepRetry()
		res, err := TrainFromSystemContext(context.Background(), fs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fs.Stats().Injected() == 0 {
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

// TestTrainFromSystemPermanentQuarantines: a template whose isolated run
// fails on every attempt is quarantined; training completes on the rest and
// the report carries the degradation.
func TestTrainFromSystemPermanentQuarantines(t *testing.T) {
	fs := NewFaultSystem(freshChaosSystem(5), FaultConfig{
		Seed:           1,
		PermanentSites: []string{"isolated/26"},
		Sleep:          func(time.Duration) {},
	})
	cfg := chaosTrainConfig()
	cfg.Retry = noSleepRetry()
	res, err := TrainFromSystemContext(context.Background(), fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if !r.Degraded() {
		t.Fatalf("report must be degraded: %+v", r)
	}
	if r.TrainedTemplates != 5 || r.TotalTemplates != 6 {
		t.Fatalf("coverage %d/%d, want 5/6", r.TrainedTemplates, r.TotalTemplates)
	}
	if len(r.QuarantinedTemplates) != 1 || r.QuarantinedTemplates[0].Template != 26 {
		t.Fatalf("quarantine records: %+v", r.QuarantinedTemplates)
	}
	if !strings.Contains(r.QuarantinedTemplates[0].Reason, "permanent") {
		t.Errorf("quarantine reason %q does not mention the permanent failure", r.QuarantinedTemplates[0].Reason)
	}
	if r.DroppedMixes == 0 {
		t.Fatal("mixes containing the quarantined template must be dropped")
	}
	// The quarantined template is absent; the survivors still predict.
	if _, err := res.Predictor.PredictKnown(26, []int{2}); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("PredictKnown on quarantined template: %v, want ErrUnknownTemplate", err)
	}
	if _, err := res.Predictor.PredictKnown(2, []int{22}); err != nil {
		t.Errorf("surviving template must predict: %v", err)
	}
}

// TestTrainFromSystemNoRetryFailsFast preserves the legacy contract: with
// no retry policy, the first failure aborts training.
func TestTrainFromSystemNoRetryFailsFast(t *testing.T) {
	fs := NewFaultSystem(freshChaosSystem(5), FaultConfig{
		Seed:          2,
		TransientRate: 1,
		Sleep:         func(time.Duration) {},
	})
	_, err := TrainFromSystem(fs, chaosTrainConfig())
	if err == nil {
		t.Fatal("fail-fast mode must surface the first fault")
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want the transient sentinel preserved", err)
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
