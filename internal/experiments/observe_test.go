package experiments

import (
	"strings"
	"testing"
	"time"

	"contender/internal/obs"
	"contender/internal/resilience"
)

// Observability contract of the collection layer: the event stream is a
// pure function of the campaign (deterministic order at Workers=1,
// deterministic set at any width), covers every task, and surfaces the
// resilience machinery as points.

func recordedEnv(t *testing.T, opts Options) (*Env, *obs.Recording) {
	t.Helper()
	rec := obs.NewRecording()
	opts.Observer = obs.Isolate(rec)
	env, err := NewEnvWith(chaosWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return env, rec
}

func TestEnvObserverGoldenSerial(t *testing.T) {
	_, a := recordedEnv(t, chaosOptions(1))
	_, b := recordedEnv(t, chaosOptions(1))
	if a.CanonicalLog() != b.CanonicalLog() {
		t.Fatal("same-seed single-worker campaigns produced different event streams")
	}
	log := a.CanonicalLog()
	for _, want := range []string{
		"begin " + obs.SpanTrainCampaign,
		"end " + obs.SpanTrainCampaign,
		"end " + obs.SpanTrainScan,
		"end " + obs.SpanTrainProfile,
		"end " + obs.SpanTrainMix,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event stream missing %q", want)
		}
	}
}

// TestEnvObserverSetMatchesAcrossWidths: arrival order differs across
// pool widths, but the SET of events (canonically sorted, wall-clock
// durations excluded) is identical — the parallel analogue of the
// golden property.
func TestEnvObserverSetMatchesAcrossWidths(t *testing.T) {
	canonicalSet := func(rec *obs.Recording) string {
		events := rec.Events()
		obs.SortEvents(events)
		sorted := obs.NewRecording()
		for _, ev := range events {
			sorted.Event(ev)
		}
		return sorted.CanonicalLog()
	}
	_, serial := recordedEnv(t, chaosOptions(1))
	_, parallel := recordedEnv(t, chaosOptions(4))
	if canonicalSet(serial) != canonicalSet(parallel) {
		t.Fatal("event set differs across worker counts")
	}
}

// TestEnvObserverTaskCoverage: every sampling task contributes exactly
// one begin and one end of its span type; the campaign end span carries
// the trained-template count.
func TestEnvObserverTaskCoverage(t *testing.T) {
	env, rec := recordedEnv(t, chaosOptions(1))
	// 6 templates, 2 isolated runs + profile work per template; exact task
	// counts come from the env itself.
	profiles := 0
	for _, ev := range rec.Events() {
		if ev.Span == obs.SpanTrainProfile && ev.Kind == obs.SpanEnd {
			profiles++
			if ev.Attempt != 1 {
				t.Errorf("fault-free task took %d attempts", ev.Attempt)
			}
		}
		if ev.Span == obs.SpanTrainCampaign && ev.Kind == obs.SpanEnd {
			if int(ev.Value) != env.Resilience.TrainedTemplates {
				t.Errorf("campaign end value %g, want %d trained", ev.Value, env.Resilience.TrainedTemplates)
			}
		}
	}
	if profiles != len(env.Workload.Templates()) {
		t.Errorf("%d profile spans, want one per template (%d)", profiles, len(env.Workload.Templates()))
	}
}

// TestEnvObserverRetryAndQuarantinePoints: injected faults surface as
// train.retry points (rescued) and train.quarantine points (permanent).
func TestEnvObserverRetryAndQuarantinePoints(t *testing.T) {
	opts := chaosOptions(1)
	opts.Retry = noSleepPolicy()
	opts.Faults = &resilience.FaultConfig{Seed: 11, TransientRate: 0.10, Sleep: func(time.Duration) {}}
	env, rec := recordedEnv(t, opts)
	if env.Resilience.Retries == 0 {
		t.Fatal("no retries; the test is vacuous")
	}
	if got := rec.CountSpan(obs.PointTrainRetry); got != env.Resilience.Retries {
		t.Errorf("%d retry points, report says %d", got, env.Resilience.Retries)
	}

	opts = chaosOptions(1)
	opts.Retry = noSleepPolicy()
	opts.Faults = &resilience.FaultConfig{
		Seed:           1,
		PermanentSites: []string{"template/26"},
		Sleep:          func(time.Duration) {},
	}
	env, rec = recordedEnv(t, opts)
	if len(env.Resilience.Quarantined) == 0 {
		t.Fatal("permanent fault did not quarantine")
	}
	if rec.CountSpan(obs.PointTrainQuarantine) == 0 {
		t.Error("no quarantine points emitted")
	}
}

// TestEnvObserverCheckpointPoints: a checkpointed campaign emits one
// train.checkpoint point per persisted task.
func TestEnvObserverCheckpointPoints(t *testing.T) {
	opts := chaosOptions(1)
	opts.CheckpointPath = t.TempDir() + "/env.ckpt"
	_, rec := recordedEnv(t, opts)
	if rec.CountSpan(obs.PointTrainCheckpoint) == 0 {
		t.Fatal("no checkpoint points on a checkpointed campaign")
	}
}

// TestEnvObserverDoesNotPerturbData: the same campaign with and without
// an observer collects byte-identical knowledge.
func TestEnvObserverDoesNotPerturbData(t *testing.T) {
	plain, err := NewEnvWith(chaosWorkload(), chaosOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	observed, _ := recordedEnv(t, chaosOptions(1))
	if envSnapshot(t, plain) != envSnapshot(t, observed) {
		t.Fatal("observation changed the collected training data")
	}
}
