package contender

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestStoreFacadeRoundtrip publishes a trained predictor through the
// facade store, reopens the directory cold, and checks the reloaded
// version predicts identically.
func TestStoreFacadeRoundtrip(t *testing.T) {
	_, pred := testWorkbench(t)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Current(); ok {
		t.Fatal("fresh store has a current version")
	}
	if _, _, err := st.CurrentPredictor(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("empty store error = %v, want ErrNoVersions", err)
	}
	v, err := st.Publish(pred, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 1 || v.Fingerprint == "" {
		t.Fatalf("published version: %+v", v)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Report().Recovered() {
		t.Fatalf("clean reopen reported recovery: %+v", st2.Report())
	}
	loaded, v2, err := st2.CurrentPredictor()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v {
		t.Fatalf("reloaded version %+v, want %+v", v2, v)
	}
	want, err := pred.PredictKnown(71, []int{2, 22})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictKnown(71, []int{2, 22})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-got) > 1e-12 {
		t.Fatalf("reloaded prediction %g, want %g", got, want)
	}
}

// TestWorkbenchLifecycleHeals closes the public-API loop: WithQuality +
// WithStore, drift a template via served feedback, and let
// Workbench.Lifecycle re-collect, canary, promote, and persist.
func TestWorkbenchLifecycleHeals(t *testing.T) {
	q := NewQuality(DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4})
	dir := t.TempDir()
	wb, err := NewWorkbench(quickObsOptions(WithQuality(q), WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wb.Store(); !ok {
		t.Fatal("WithStore did not attach a store")
	}
	pred, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(pred)
	if err != nil {
		t.Fatal(err)
	}

	const victim, shift = 2, 1.8
	lc, err := wb.Lifecycle(sh, LifecycleConfig{
		World: func(id, mpl int, lat float64) float64 {
			if id == victim {
				return lat * shift
			}
			return lat
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wiring the lifecycle published the baseline version.
	st, _ := wb.Store()
	if st.Len() != 1 {
		t.Fatalf("store has %d versions after wiring, want 1 (baseline)", st.Len())
	}

	// Healthy traffic, then the victim's substrate slows down shift×.
	feed := func(factor float64, n int) {
		t.Helper()
		base, err := pred.PredictKnown(victim, []int{22})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := sh.Snapshot().Feedback(victim, []int{22}, base*factor); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(1.0, 10)
	rep, err := lc.Step(context.Background())
	if err != nil || rep.Action != LifecycleIdle {
		t.Fatalf("healthy step = %+v, %v; want idle", rep, err)
	}
	feed(shift, 40)

	rep, err = lc.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != LifecyclePromoted {
		t.Fatalf("step = %+v, want promoted", rep)
	}
	if len(rep.Stale) != 1 || rep.Stale[0] != victim {
		t.Fatalf("stale = %v, want [%d]", rep.Stale, victim)
	}
	if rep.NewMRE >= rep.OldMRE {
		t.Fatalf("canary did not improve: old %g new %g", rep.OldMRE, rep.NewMRE)
	}
	if rep.Version.Seq != 2 {
		t.Fatalf("promoted version %+v, want seq 2", rep.Version)
	}
	if st.Len() != 2 {
		t.Fatalf("store has %d versions after promotion, want 2", st.Len())
	}
	if lc.Degraded() {
		t.Fatal("degraded after a successful promotion")
	}
	// The healed model prices the victim's drifted world.
	healed, err := sh.Snapshot().PredictKnown(victim, []int{22})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := pred.PredictKnown(victim, []int{22})
	if err != nil {
		t.Fatal(err)
	}
	if healed <= orig {
		t.Fatalf("healed prediction %g not above pre-drift %g", healed, orig)
	}
}

// TestWorkbenchLifecycleNeedsQuality: the loop cannot run without the
// drift detector WithQuality installs.
func TestWorkbenchLifecycleNeedsQuality(t *testing.T) {
	wb, pred := testWorkbench(t)
	sh, err := NewSharded(pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Lifecycle(sh, LifecycleConfig{}); err == nil {
		t.Fatal("Lifecycle accepted a workbench without WithQuality")
	}
}
