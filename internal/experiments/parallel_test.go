package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/tpcds"
)

// buildEnv constructs a small environment at the given pool width. The
// options match sharedEnv's except for the template subset, kept tighter so
// the determinism test can afford several full builds.
func buildEnv(t *testing.T, workers int) *Env {
	t.Helper()
	w := tpcds.NewWorkload().Subset([]int{2, 22, 25, 26, 61, 71})
	env, err := NewEnvWith(w, Options{
		MPLs:          []int{2, 3},
		LHSRuns:       2,
		SteadySamples: 3,
		IsolatedRuns:  2,
		Seed:          7,
		Workers:       workers,
	})
	if err != nil {
		t.Fatalf("building env with %d workers: %v", workers, err)
	}
	return env
}

// TestEnvBuildDeterministic is the contract behind the parallel collector:
// worker count must be invisible in the training data. Every width has to
// produce byte-identical Knowledge snapshots, equal samples, and equal
// simulated-time tallies (exact float equality — the merge order is
// canonical, so even accumulation order matches). Running this test under
// `go test -race` also exercises the pool for data races.
func TestEnvBuildDeterministic(t *testing.T) {
	base := buildEnv(t, 1)
	baseSnap, err := json.Marshal(base.Know.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		env := buildEnv(t, workers)
		snap, err := json.Marshal(env.Know.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(snap) != string(baseSnap) {
			t.Errorf("workers=%d: Knowledge snapshot differs from workers=1", workers)
		}
		if !reflect.DeepEqual(env.Samples, base.Samples) {
			t.Errorf("workers=%d: Samples differ from workers=1", workers)
		}
		if env.SimulatedSeconds != base.SimulatedSeconds {
			t.Errorf("workers=%d: SimulatedSeconds %+v != %+v",
				workers, env.SimulatedSeconds, base.SimulatedSeconds)
		}
	}
}

// failingMix fails every steady-state run with boom.
type failingMix struct{ System }

var errBoom = errors.New("boom")

func (failingMix) RunMix([]int, int) ([]float64, error) { return nil, errBoom }

// TestRunTasksErrorPropagates checks the pool surfaces a task failure
// (wrapped with the task key) instead of hanging, at width 1 and a wide
// pool.
func TestRunTasksErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := chaosCampaign(chaosOptions(workers))
		measure := c.backend
		c.backend = func(key string) (System, func()) {
			sys, done := measure(key)
			if key == "mix/3/1" {
				return failingMix{sys}, done
			}
			return sys, done
		}
		_, err := c.run(context.Background())
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "mix/3/1") {
			t.Errorf("workers=%d: error %q does not name the failing task", workers, err)
		}
	}
}

// TestPoolStopsAfterFatalError counts the tasks that reach the backend
// in fail-fast mode when mix/3/1 fails. Workers claim tasks in plan order
// and start none once the failure is recorded, so after the failing task
// at most the workers−1 tasks the other workers had already claimed may
// start; one worker sees exactly the plan up to the failing task. The
// tasks that reach the backend after the failing one are held for a
// while, so a worker cannot finish one and claim another in the instant
// between the failure and its record.
func TestPoolStopsAfterFatalError(t *testing.T) {
	const failing = "mix/3/1"
	for _, workers := range []int{1, 2, 4} {
		c := chaosCampaign(chaosOptions(workers))
		var (
			mu     sync.Mutex
			keys   []string
			failed bool
		)
		measure := c.backend
		c.backend = func(key string) (System, func()) {
			mu.Lock()
			keys = append(keys, key)
			late := failed
			failed = failed || key == failing
			mu.Unlock()
			if late {
				time.Sleep(20 * time.Millisecond)
			}
			sys, done := measure(key)
			if key == failing {
				return failingMix{sys}, done
			}
			return sys, done
		}
		if _, err := c.run(context.Background()); !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		f := slices.Index(keys, failing)
		if f < 0 {
			t.Fatalf("workers=%d: %s never reached the backend", workers, failing)
		}
		if after := keys[f+1:]; len(after) > workers-1 {
			t.Errorf("workers=%d: %d tasks started after %s failed (%v), want at most %d",
				workers, len(after), failing, after, workers-1)
		}
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("workers=%d: task %s reached the backend twice", workers, k)
			}
			seen[k] = true
		}
		if workers == 1 {
			var want []string
			for _, task := range c.plan {
				want = append(want, task.key)
				if task.key == failing {
					break
				}
			}
			if !slices.Equal(keys, want) {
				t.Errorf("workers=1: backend saw %v, want the plan up to %s: %v", keys, failing, want)
			}
		}
	}
}

// TestObservationsForIndexed cross-checks the primary-keyed observation
// index against a straight filter of the flat list.
func TestObservationsForIndexed(t *testing.T) {
	env := buildEnv(t, 2)
	for _, mpl := range []int{2, 3} {
		all := env.Observations(mpl)
		for _, id := range env.TemplateIDs() {
			var want int
			for _, o := range all {
				if o.Primary == id {
					want++
				}
			}
			got := env.ObservationsFor(mpl, id)
			if len(got) != want {
				t.Errorf("MPL %d T%d: indexed %d observations, filter finds %d", mpl, id, len(got), want)
			}
			for _, o := range got {
				if o.Primary != id {
					t.Fatalf("MPL %d T%d: index returned observation with primary %d", mpl, id, o.Primary)
				}
			}
		}
	}
}
