package contender

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"contender/internal/obs"
)

// hostileAgrees runs one arm twice, unobserved and with a panicking
// observer, and requires the two results to be deeply equal. The
// hostile observer logs every event before it panics, and the run must
// have reached each span in want: an arm whose observer is never called
// would prove nothing.
func hostileAgrees(t *testing.T, want []string, run func(t *testing.T, o Observer) any) {
	t.Helper()
	log := NewRecordingObserver()
	clean := run(t, nil)
	hostile := run(t, panickingObserver{log})
	for _, span := range want {
		if log.CountSpan(span) == 0 {
			t.Errorf("the hostile observer never saw %s", span)
		}
	}
	if !reflect.DeepEqual(clean, hostile) {
		t.Errorf("a panicking observer changed the result:\nclean   %+v\nhostile %+v", clean, hostile)
	}
}

// TestHostileObserver runs an observer that panics on every event
// through each instrumented path: lifecycle steps, both server fronts,
// scheduling, a faulted campaign and the predictor's serving calls. The
// panic must be swallowed where it is raised, leaving every result as
// an unobserved run produces it.
func TestHostileObserver(t *testing.T) {
	t.Run("lifecycle", func(t *testing.T) {
		// One step rolls back (no candidate can improve by 100%), then a
		// second loop over the same serving set promotes.
		hostileAgrees(t, []string{obs.PointLifecycleStale, obs.SpanLifecycleCanary, obs.PointLifecycleRollback, obs.PointLifecyclePromote, obs.PointStorePublish, obs.PointQualityDrift},
			func(t *testing.T, o Observer) any {
				q := NewQuality(DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4})
				wb, err := NewWorkbench(quickObsOptions(WithQuality(q), WithStore(t.TempDir()), WithObserver(o))...)
				if err != nil {
					t.Fatal(err)
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
				world := func(id, mpl int, lat float64) float64 {
					if id == victim {
						return lat * shift
					}
					return lat
				}
				base, err := pred.PredictKnown(victim, []int{22})
				if err != nil {
					t.Fatal(err)
				}
				// Healthy traffic, then the victim's substrate slows down.
				var feedback []FeedbackResult
				for i := 0; i < 50; i++ {
					factor := 1.0
					if i >= 10 {
						factor = shift
					}
					res, err := sh.Snapshot().Feedback(victim, []int{22}, base*factor)
					if err != nil {
						t.Fatal(err)
					}
					feedback = append(feedback, res)
				}
				var reports []LifecycleReport
				for _, minImprove := range []float64{1, 0} {
					lc, err := wb.Lifecycle(sh, LifecycleConfig{World: world, MinImprove: minImprove})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := lc.Step(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					reports = append(reports, rep)
				}
				if reports[0].Action != LifecycleRolledBack || reports[1].Action != LifecyclePromoted {
					t.Fatalf("steps %s, %s; want rolled-back, promoted", reports[0].Action, reports[1].Action)
				}
				return []any{feedback, reports, predictorBytes(t, sh.Snapshot())}
			})
	})

	t.Run("serve", func(t *testing.T) {
		wb, err := NewWorkbench(QuickSampling(), WithMPLs(2, 3), WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := wb.Train()
		if err != nil {
			t.Fatal(err)
		}
		pool := wb.TemplateIDs()
		hostileAgrees(t, []string{obs.SpanServeRequest, obs.PointServeConn, obs.PointServeOverload, obs.SpanServePredictBatch, obs.SpanServePredictKnown},
			func(t *testing.T, o Observer) any {
				p := *pred
				p.SetObserver(o)
				srv, err := wb.Serve(context.Background(), &p, "127.0.0.1:0", WithServeObserver(o))
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					if err := srv.Shutdown(ctx); err != nil {
						t.Errorf("Shutdown: %v", err)
					}
				}()
				binarySum, err := binaryStreamSum(srv.BinaryAddr(), pool, 0)
				if err != nil {
					t.Fatal(err)
				}
				httpSum := httpStreamSum(t, srv.Handler(), pool, 0)

				// A bucket of one token that never refills: the first
				// request is answered, the second rejected.
				sh, err := NewSharded(&p)
				if err != nil {
					t.Fatal(err)
				}
				limited, err := NewServer(sh, WithServeObserver(o), WithAdmission(1e-9, 1, 0))
				if err != nil {
					t.Fatal(err)
				}
				var answers []string
				for i := 0; i < 2; i++ {
					w := httptest.NewRecorder()
					limited.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte(`{"primary":2,"concurrent":[22]}`))))
					answers = append(answers, http.StatusText(w.Code)+" "+w.Body.String())
				}
				if !strings.HasPrefix(answers[1], http.StatusText(http.StatusTooManyRequests)) {
					t.Fatalf("second request through a one-token bucket answered %q, want 429", answers[1])
				}
				return []any{binarySum, httpSum, answers}
			})
	})

	t.Run("schedule", func(t *testing.T) {
		_, pred := testWorkbench(t)
		hostileAgrees(t, []string{obs.SpanSchedPolicy, obs.SpanSchedForecast},
			func(t *testing.T, o Observer) any {
				p := *pred
				p.SetObserver(o)
				order, jobs, makespan, err := p.ScheduleBatch([]int{71, 2, 62, 26, 22}, 2, PolicyInteractionAware)
				if err != nil {
					t.Fatal(err)
				}
				forecast, span, err := p.ForecastBatch(order, 2)
				if err != nil {
					t.Fatal(err)
				}
				return []any{order, jobs, makespan, forecast, span}
			})
	})

	t.Run("campaign", func(t *testing.T) {
		hostileAgrees(t, []string{obs.PointTrainRetry, obs.PointTrainQuarantine, obs.PointTrainCheckpoint, obs.SpanTrainFit},
			func(t *testing.T, o Observer) any {
				faults := FaultConfig{Seed: 3, TransientRate: 0.10, PermanentSites: []string{"template/26"}, Sleep: func(time.Duration) {}}
				wb, err := NewWorkbench(quickObsOptions(
					WithRetry(*noSleepRetry()),
					WithFaults(faults),
					WithCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt")),
					WithObserver(o),
				)...)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := wb.Train()
				if err != nil {
					t.Fatal(err)
				}
				rep := wb.Resilience()
				if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != "template/26" {
					t.Fatalf("quarantine records %+v, want template/26", rep.Quarantined)
				}
				return []any{predictorBytes(t, pred), rep}
			})
	})

	t.Run("predictor", func(t *testing.T) {
		_, pred := testWorkbench(t)
		hostileAgrees(t, []string{obs.SpanServePredictBatch, obs.SpanServePredictExplain, obs.SpanServeCQI, obs.PointQualityFeedback, obs.PointQualityDrift},
			func(t *testing.T, o Observer) any {
				p := *pred
				p.SetObserver(o)
				p.SetQuality(NewQuality(DriftConfig{MinSamples: 4, Delta: 0.05, Lambda: 1, StaleMRE: 0.3, RecoverMRE: 0.1, Window: 4}))
				var buf PredictBuffer
				batch, err := p.PredictBatch(&buf, 71, [][]int{{2}, {2, 22}, {22, 62}})
				if err != nil {
					t.Fatal(err)
				}
				var ebuf ExplainBuffer
				if _, err := p.Explain(&ebuf, 71, []int{2, 22}); err != nil {
					t.Fatal(err)
				}
				cqi, err := p.CQI(71, []int{2, 22})
				if err != nil {
					t.Fatal(err)
				}
				base, err := p.PredictKnown(71, []int{2, 22})
				if err != nil {
					t.Fatal(err)
				}
				var feedback []FeedbackResult
				transitions := 0
				for i := 0; i < 50; i++ {
					factor := 1.0
					if i >= 10 {
						factor = 1.8
					}
					res, err := p.Feedback(71, []int{2, 22}, base*factor)
					if err != nil {
						t.Fatal(err)
					}
					if res.Transitioned {
						transitions++
					}
					feedback = append(feedback, res)
				}
				if transitions == 0 {
					t.Fatal("the feedback sequence never changed drift state")
				}
				return []any{append([]float64(nil), batch...), ebuf, cqi, base, feedback}
			})
	})
}
