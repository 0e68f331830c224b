package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

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
		c.backend = func(key string) System {
			if key == "mix/3/1" {
				return failingMix{measure(key)}
			}
			return measure(key)
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
