package experiments

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"contender/internal/core"
	"contender/internal/resilience"
)

// runSelfheal builds a small environment at the given worker count and
// runs the full self-healing lifecycle replay.
func runSelfheal(t *testing.T, workers int) *Result {
	t.Helper()
	env, err := NewEnvWith(chaosWorkload(), chaosOptions(workers))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtSelfheal(env)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExtSelfhealHealsExactlyTheVictims walks the whole loop: exactly the
// two victims go stale, one targeted retrain promotes to version 2 with an
// improved canary, continued drifted traffic stays healthy, the forced
// over-correction rolls back, and the store survives crash debris and a
// bit flip.
func TestExtSelfhealHealsExactlyTheVictims(t *testing.T) {
	res := runSelfheal(t, 1)
	m := res.Metrics

	if m["victims"] != 2 || m["stale_detected"] != 2 {
		t.Fatalf("victims=%v stale_detected=%v, want 2/2\n%s", m["victims"], m["stale_detected"], res.Render())
	}
	if m["promotions"] != 1 || m["rollbacks"] != 1 {
		t.Errorf("promotions=%v rollbacks=%v, want 1/1\n%s", m["promotions"], m["rollbacks"], res.Render())
	}
	if m["stale_after_heal"] != 0 {
		t.Errorf("stale_after_heal=%v, want 0 (new model must absorb the drift)\n%s", m["stale_after_heal"], res.Render())
	}
	// baseline + promoted candidate; the rolled-back candidate never lands.
	if m["store_versions"] != 2 || m["store_publishes"] != 2 {
		t.Errorf("store_versions=%v store_publishes=%v, want 2/2\n%s", m["store_versions"], m["store_publishes"], res.Render())
	}
	if m["kept_serving_after_rollback"] != 1 {
		t.Errorf("rollback touched the serving snapshot\n%s", res.Render())
	}
	// Targeted: the victims must not force a full campaign.
	if m["remeasured_mixes"] <= 0 || m["remeasured_mixes"] >= m["total_mixes"] {
		t.Errorf("remeasured_mixes=%v of %v, want a strict subset\n%s", m["remeasured_mixes"], m["total_mixes"], res.Render())
	}
	if m["crash_tmp_swept"] != 1 || m["corrupt_versions"] != 1 || m["fell_back"] != 1 {
		t.Errorf("crash/corruption recovery = swept %v corrupt %v fell_back %v, want 1/1/1\n%s",
			m["crash_tmp_swept"], m["corrupt_versions"], m["fell_back"], res.Render())
	}

	var heal, reject []string
	for _, row := range res.Rows {
		switch row[0] {
		case "heal":
			heal = row
		case "reject":
			reject = row
		}
	}
	if heal == nil || heal[1] != "promoted" {
		t.Fatalf("heal row = %v, want promoted\n%s", heal, res.Render())
	}
	if reject == nil || reject[1] != "rolled-back" {
		t.Fatalf("reject row = %v, want rolled-back\n%s", reject, res.Render())
	}
}

// TestExtSelfhealGoldenAcrossWorkers requires byte-identical rendering
// across collection worker counts: task engines are seeded by key, the
// replay is serial and canonical, store versions are content-addressed,
// and the lifecycle loop has no clocks — parallelism must not change one
// character.
func TestExtSelfhealGoldenAcrossWorkers(t *testing.T) {
	golden := runSelfheal(t, 1).Render()
	if !strings.Contains(golden, "promoted") || !strings.Contains(golden, "rolled-back") {
		t.Fatalf("golden render misses lifecycle actions:\n%s", golden)
	}
	for _, workers := range []int{2, 4} {
		if got := runSelfheal(t, workers).Render(); got != golden {
			t.Errorf("render differs at %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, golden, workers, got)
		}
	}
}

// TestRecollectIdentityWorldReproducesTraining re-measures two templates
// with no drift and checks the candidate predicts exactly like the
// original: per-task seeding by key makes targeted re-collection a
// byte-identical re-measurement.
func TestRecollectIdentityWorldReproducesTraining(t *testing.T) {
	env, err := NewEnvWith(chaosWorkload(), chaosOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := core.Train(env.Know, env.AllObservations(), core.TrainOptions{DropOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	mpls := env.sortedMPLs()
	refs, ok := orig.References(mpls[0])
	if !ok {
		t.Fatal("no reference models")
	}
	var trained []int
	for _, id := range env.TemplateIDs() {
		if _, ok := refs.Model(id); ok {
			trained = append(trained, id)
		}
	}
	victims := qualityVictims(trained)

	cand, err := env.Recollect(context.Background(), RecollectConfig{Templates: victims})
	if err != nil {
		t.Fatalf("Recollect: %v", err)
	}
	for _, mpl := range mpls {
		for _, o := range env.Observations(mpl) {
			want, err1 := orig.PredictKnown(o.Primary, o.Concurrent)
			got, err2 := cand.PredictKnown(o.Primary, o.Concurrent)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("T%d MPL %d: error mismatch %v vs %v", o.Primary, mpl, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("T%d MPL %d: identity re-collection changed prediction %g -> %g", o.Primary, mpl, want, got)
			}
		}
	}
}

// TestRecollectRejectsUnknownTemplate guards the promote path: a candidate
// can only ever be fit for templates the knowledge base knows.
func TestRecollectRejectsUnknownTemplate(t *testing.T) {
	env, err := NewEnvWith(chaosWorkload(), chaosOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Recollect(context.Background(), RecollectConfig{Templates: []int{999}}); err == nil {
		t.Fatal("Recollect accepted an unknown template")
	}
	if _, err := env.Recollect(context.Background(), RecollectConfig{}); err == nil {
		t.Fatal("Recollect accepted an empty template set")
	}
}

// TestRecollectLeavesEnvUnchanged holds Recollect to its promise that the
// environment is never mutated: the campaign's report (retries spent,
// injected faults) reads the same after a re-collection under its own
// retry policy. The report is read from another goroutine while the
// re-collection runs, as Workbench.Resilience can be during a lifecycle
// step, so under -race a write to it fails the test too.
func TestRecollectLeavesEnvUnchanged(t *testing.T) {
	opts := chaosOptions(2)
	opts.Retry = noSleepPolicy()
	opts.Faults = &resilience.FaultConfig{Seed: 11, TransientRate: 0.10, Sleep: func(time.Duration) {}}
	env, err := NewEnvWith(chaosWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.Resilience.Retries == 0 || env.Resilience.FaultStats == nil {
		t.Fatalf("campaign report %+v: want retries and fault stats to compare", env.Resilience)
	}
	before := env.Resilience
	before.Quarantined = slices.Clone(before.Quarantined)
	stats := *before.FaultStats
	before.FaultStats = &stats

	read := make(chan CollectionReport)
	go func() { read <- env.Resilience }()
	if _, err := env.Recollect(context.Background(), RecollectConfig{
		Templates: env.TemplateIDs()[:2],
		Retry:     noSleepPolicy(),
	}); err != nil {
		t.Fatalf("Recollect: %v", err)
	}
	if got := <-read; !reflect.DeepEqual(got, before) {
		t.Errorf("report read during Recollect = %+v, want %+v", got, before)
	}
	if !reflect.DeepEqual(env.Resilience, before) {
		t.Errorf("Recollect changed the environment's report: %+v, want %+v", env.Resilience, before)
	}
}
