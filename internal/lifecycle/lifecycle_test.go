package lifecycle

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"contender/internal/core"
	"contender/internal/obs"
	"contender/internal/store"
)

// makePredictor builds a small trained predictor whose victim template
// (ID 2) latencies scale with knob, so different knobs predict
// differently while template 22 stays put.
func makePredictor(t *testing.T, knob float64) *core.Predictor {
	t.Helper()
	doc := map[string]any{
		"version": 1,
		"templates": []map[string]any{
			{"id": 2, "isolated_latency": 10 * knob, "io_fraction": 0.5, "working_set_bytes": 1024,
				"plan_steps": 3, "records_accessed": 100, "scans": []string{"store_sales"},
				"spoilers": []map[string]any{{"mpl": 2, "latency": 14 * knob}}},
			{"id": 22, "isolated_latency": 20, "io_fraction": 0.4, "working_set_bytes": 2048,
				"plan_steps": 4, "records_accessed": 200, "scans": []string{"inventory"},
				"spoilers": []map[string]any{{"mpl": 2, "latency": 26}}},
		},
		"scan_times": map[string]float64{"inventory": 2, "store_sales": 1},
		"models": []map[string]any{
			{"mpl": 2, "template": 2, "mu": 0.5, "b": 0.2},
			{"mpl": 2, "template": 22, "mu": 0.6, "b": 0.1},
		},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var snap core.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	p, err := core.PredictorFromSnapshot(&snap)
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	return p
}

// holdoutFor builds a holdout whose observations are exactly what the
// given predictor would answer — that predictor scores MRE 0 on it.
func holdoutFor(t *testing.T, p *core.Predictor) HoldoutFunc {
	t.Helper()
	obsLat, err := p.PredictKnown(2, []int{22})
	if err != nil {
		t.Fatalf("holdout prediction: %v", err)
	}
	return func([]int) []Sample {
		return []Sample{{Primary: 2, Concurrent: []int{22}, Observed: obsLat}}
	}
}

// driveStale pushes template 2 of q into the stale state with a stream
// of large one-sided errors.
func driveStale(t *testing.T, q *obs.Quality) {
	t.Helper()
	for i := 0; i < 10; i++ {
		q.Observe(2, 0.02) // healthy baseline regime
	}
	for i := 0; i < 40; i++ {
		q.Observe(2, 0.6) // sustained shift: degraded, then stale
	}
	if got := q.State(2); got != obs.DriftStale {
		t.Fatalf("template 2 state = %v, want stale", got)
	}
}

func qcfg() obs.DriftConfig {
	return obs.DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4}
}

func TestStepPromotesOnImprovedCanary(t *testing.T) {
	old := makePredictor(t, 1.0)
	better := makePredictor(t, 1.8)
	q := obs.NewQuality(qcfg())
	old.SetQuality(q)
	sh, err := core.NewSharded(old)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	st, err := store.New(store.NewMemRepository())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	rec := obs.NewRecording()
	m, err := New(sh, Config{
		Quality:   q,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) { return better, nil }),
		Holdout:   holdoutFor(t, better), // the drifted world matches `better`
		Store:     st,
		Observer:  rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := st.Current(); !ok {
		t.Fatal("baseline version not published")
	}

	// Healthy world: the loop idles.
	rep, err := m.Step(context.Background())
	if err != nil || rep.Action != ActionIdle {
		t.Fatalf("healthy step = %+v, %v; want idle", rep, err)
	}

	driveStale(t, q)
	rep, err = m.Step(context.Background())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if rep.Action != ActionPromoted {
		t.Fatalf("action = %s (err %q), want promoted", rep.Action, rep.Err)
	}
	if rep.NewMRE >= rep.OldMRE {
		t.Fatalf("canary did not improve: old %g new %g", rep.OldMRE, rep.NewMRE)
	}
	if sh.Snapshot() != better {
		t.Fatal("promotion did not hot-swap the candidate")
	}
	if sh.Snapshot().Quality() != q {
		t.Fatal("candidate lost the quality aggregator")
	}
	if q.State(2) != obs.DriftHealthy {
		t.Fatal("stale template not reset after promotion")
	}
	if rep.Version.Seq != 2 {
		t.Fatalf("published version = %+v, want seq 2", rep.Version)
	}
	if cur, _ := st.Current(); cur != rep.Version {
		t.Fatalf("store current = %+v, want %+v", cur, rep.Version)
	}
	if m.Degraded() {
		t.Fatal("degraded after a successful promotion")
	}
	var promoted bool
	for _, ev := range rec.Events() {
		if ev.Span == obs.PointLifecyclePromote {
			promoted = true
		}
	}
	if !promoted {
		t.Fatal("no lifecycle.promote event emitted")
	}
}

// TestPromotionResetsBlame pins that promoting a retrained template
// rearms its blame matrix rows — the new model's decompositions are
// judged on their own — while rows where the template is only a
// neighbor keep their history.
func TestPromotionResetsBlame(t *testing.T) {
	old := makePredictor(t, 1.0)
	better := makePredictor(t, 1.8)
	q := obs.NewQuality(qcfg())
	old.SetQuality(q)
	b := obs.NewBlame(obs.BlameConfig{})
	b.Observe(2, []int{22}, []float64{3.5})  // primary 2: reset on its promotion
	b.Observe(22, []int{2}, []float64{1.25}) // primary 22: untouched
	sh, err := core.NewSharded(old)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	m, err := New(sh, Config{
		Quality:   q,
		Blame:     b,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) { return better, nil }),
		Holdout:   holdoutFor(t, better),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	driveStale(t, q)
	rep, err := m.Step(context.Background())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if rep.Action != ActionPromoted {
		t.Fatalf("action = %s (err %q), want promoted", rep.Action, rep.Err)
	}
	brep := b.Report()
	if len(brep.Pairs) != 1 {
		t.Fatalf("blame pairs after promotion = %+v, want only 22/2", brep.Pairs)
	}
	p := brep.Pairs[0]
	if p.Primary != 22 || p.Neighbor != 2 || p.Seconds != 1.25 {
		t.Fatalf("surviving blame pair = %+v, want primary 22 neighbor 2 seconds 1.25", p)
	}
}

func TestStepRollsBackOnCanaryRegression(t *testing.T) {
	old := makePredictor(t, 1.0)
	worse := makePredictor(t, 5.0)
	q := obs.NewQuality(qcfg())
	old.SetQuality(q)
	sh, _ := core.NewSharded(old)
	rec := obs.NewRecording()
	m, err := New(sh, Config{
		Quality:   q,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) { return worse, nil }),
		Holdout:   holdoutFor(t, old), // the world still matches `old`
		Observer:  rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	driveStale(t, q)
	rep, err := m.Step(context.Background())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if rep.Action != ActionRolledBack {
		t.Fatalf("action = %s, want rolled-back", rep.Action)
	}
	if sh.Snapshot() != old {
		t.Fatal("rollback swapped the serving model")
	}
	if !m.Degraded() {
		t.Fatal("rollback did not flip the degraded gauge")
	}
	var rolledBack bool
	for _, ev := range rec.Events() {
		if ev.Span == obs.PointLifecycleRollback {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Fatal("no lifecycle.rollback event emitted")
	}
	// Serving must still answer on the old model.
	if _, err := sh.Snapshot().PredictKnown(2, []int{22}); err != nil {
		t.Fatalf("serving interrupted after rollback: %v", err)
	}
}

func TestRetrainFailureDegradesGracefully(t *testing.T) {
	old := makePredictor(t, 1.0)
	q := obs.NewQuality(qcfg())
	old.SetQuality(q)
	sh, _ := core.NewSharded(old)
	boom := errors.New("substrate unreachable")
	m, err := New(sh, Config{
		Quality:   q,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) { return nil, boom }),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	driveStale(t, q)
	rep, err := m.Step(context.Background())
	if err != nil {
		t.Fatalf("Step returned an error for a retrain failure: %v", err)
	}
	if rep.Action != ActionFailed || rep.Err == "" {
		t.Fatalf("report = %+v, want retrain-failed with detail", rep)
	}
	if sh.Snapshot() != old || !m.Degraded() {
		t.Fatal("failure must keep the old model serving in degraded mode")
	}
	// Cooldown: the immediate next step waits instead of hammering the
	// broken substrate.
	rep, _ = m.Step(context.Background())
	if rep.Action != ActionCooldown {
		t.Fatalf("post-failure action = %s, want cooldown", rep.Action)
	}
}

func TestForceRetrainNeedsTemplates(t *testing.T) {
	old := makePredictor(t, 1.0)
	q := obs.NewQuality(qcfg())
	sh, _ := core.NewSharded(old)
	m, err := New(sh, Config{
		Quality:   q,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) { return old, nil }),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.ForceRetrain(context.Background(), nil); err == nil {
		t.Fatal("ForceRetrain accepted an empty template set")
	}
}

// TestHotSwapUnderFire hammers the serving data plane (prediction and
// inline feedback on the snapshot, as the server runs them) while the
// control plane promotes repeatedly — run under -race this is the
// hot-swap safety proof. Both predictors share one quality aggregator,
// whose feedback counter must end up holding every sample exactly once
// (promotion resets the victim's tracker, not the counter).
func TestHotSwapUnderFire(t *testing.T) {
	pa := makePredictor(t, 1.0)
	pb := makePredictor(t, 1.8)
	q := obs.NewQuality(qcfg())
	pa.SetQuality(q)
	pb.SetQuality(q)
	sh, err := core.NewSharded(pa)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	st, err := store.New(store.NewMemRepository())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	flip := false
	m, err := New(sh, Config{
		Quality: q,
		Collector: CollectorFunc(func(context.Context, []int) (*core.Predictor, error) {
			flip = !flip // guarded by the manager's step mutex
			if flip {
				return pb, nil
			}
			return pa, nil
		}),
		Store: st,
		// No holdout: promote unconditionally so every ForceRetrain
		// exercises publish+swap.
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sent := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lat, err := sh.Snapshot().PredictKnown(2, []int{22})
				if err != nil || lat <= 0 {
					t.Errorf("Predict under swap: %g, %v", lat, err)
					return
				}
				if _, err := sh.Snapshot().Feedback(2, []int{22}, lat*1.1); err != nil {
					t.Errorf("Feedback under swap: %v", err)
					return
				}
				sent[w]++
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		if _, err := m.ForceRetrain(context.Background(), []int{2}); err != nil {
			t.Fatalf("ForceRetrain %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	var want int64
	for _, n := range sent {
		want += n
	}
	if got := q.Registry().Snapshot().Counter(`contender_quality_feedback_total{template="2"}`); got != want {
		t.Errorf("contender_quality_feedback_total = %d, want the %d samples sent", got, want)
	}
	if got := sh.Snapshot(); got != pa && got != pb {
		t.Fatal("serving snapshot is neither candidate")
	}
	// Content-addressed store: 100 promotions of two predictors are two
	// distinct versions plus re-publications.
	if st.Len() < 2 {
		t.Fatalf("store history = %d, want >= 2", st.Len())
	}
}
