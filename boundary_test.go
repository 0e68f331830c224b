package contender

import (
	"errors"
	"testing"
)

// TestNoPanicAtLibraryBoundary calls every exported Predictor, Workbench
// and scheduling entry with unknown, negative and far-flung template IDs
// (as primary and as neighbor), empty mixes, mixes longer than any
// trained MPL and nil arguments. Each call must return an error that
// errors.Is matches against the expected sentinel (or, for a nil
// argument, any error), and none may panic.
func TestNoPanicAtLibraryBoundary(t *testing.T) {
	wb, pred := testWorkbench(t)
	plan, err := ParsePlan("HashAggregate:2e6:100(HashJoin:15e6:110(Scan:date_dim:365:141, Scan:web_sales:20e6:158))")
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := wb.ProfileTemplate(888, plan)
	if err != nil {
		t.Fatal(err)
	}
	adhoc.SpoilerLatency = map[int]float64{2: 3 * adhoc.IsolatedLatency, 3: 4 * adhoc.IsolatedLatency}
	long := []int{2, 22, 26, 62, 82, 25} // MPL 7; QuickSampling trains MPLs 2-3
	var pbuf PredictBuffer
	var ebuf ExplainBuffer
	know := pred.Knowledge()
	f64 := func(_ float64, err error) error { return err }

	type call struct {
		name string
		want error // nil: any non-nil error (a bad argument)
		fn   func() error
	}
	var calls []call
	add := func(name string, want error, fn func() error) { calls = append(calls, call{name, want, fn}) }
	for _, bad := range []int{9999, -5, 1 << 40} {
		mix := []int{2, bad}
		add("PredictKnown primary", ErrUnknownTemplate, func() error { return f64(pred.PredictKnown(bad, []int{2})) })
		add("PredictKnown neighbor", ErrUnknownTemplate, func() error { return f64(pred.PredictKnown(71, mix)) })
		add("PredictBatch primary", ErrUnknownTemplate, func() error { _, err := pred.PredictBatch(&pbuf, bad, [][]int{{2}}); return err })
		add("PredictBatch neighbor", ErrUnknownTemplate, func() error { _, err := pred.PredictBatch(&pbuf, 71, [][]int{{2}, mix}); return err })
		add("Explain primary", ErrUnknownTemplate, func() error { return f64(pred.Explain(&ebuf, bad, []int{2})) })
		add("Explain neighbor", ErrUnknownTemplate, func() error { return f64(pred.Explain(&ebuf, 71, mix)) })
		add("Feedback primary", ErrUnknownTemplate, func() error { _, err := pred.Feedback(bad, []int{2}, 10); return err })
		add("Feedback neighbor", ErrUnknownTemplate, func() error { _, err := pred.Feedback(71, mix, 10); return err })
		add("CQI primary", ErrUnknownTemplate, func() error { return f64(pred.CQI(bad, []int{2})) })
		add("CQI neighbor", ErrUnknownTemplate, func() error { return f64(pred.CQI(71, mix)) })
		add("CQIForStats neighbor", ErrUnknownTemplate, func() error { return f64(pred.CQIForStats(adhoc, mix)) })
		add("PredictNew neighbor", ErrUnknownTemplate, func() error { return f64(pred.PredictNew(adhoc, mix, SpoilerMeasured)) })
		add("PredictNew KNN neighbor", ErrUnknownTemplate, func() error { return f64(pred.PredictNew(adhoc, mix, SpoilerKNN)) })
		add("TrackProgress", ErrUnknownTemplate, func() error { _, err := pred.TrackProgress(bad); return err })
		add("ProgressTracker.Remaining neighbor", ErrUnknownTemplate, func() error {
			tr, err := pred.TrackProgress(71)
			if err != nil {
				return err
			}
			return f64(tr.Remaining(mix))
		})
		add("Knowledge.CQI", ErrUnknownTemplate, func() error { return f64(know.CQI(bad, []int{2})) })
		add("Knowledge.CQIForStats", ErrUnknownTemplate, func() error { return f64(know.CQIForStats(adhoc, mix)) })
		add("Knowledge.BaselineIO", ErrUnknownTemplate, func() error { return f64(know.BaselineIO(mix)) })
		add("Knowledge.PositiveIO primary", ErrUnknownTemplate, func() error { return f64(know.PositiveIO(bad, []int{2})) })
		add("Knowledge.PositiveIO neighbor", ErrUnknownTemplate, func() error { return f64(know.PositiveIO(71, mix)) })
		for _, pol := range []SchedulePolicy{PolicyFIFO, PolicySJF, PolicyInteractionAware} {
			add("ScheduleBatch "+pol.Name(), ErrUnknownTemplate, func() error { _, _, _, err := pred.ScheduleBatch([]int{71, bad, 2}, 2, pol); return err })
		}
		add("ForecastBatch", ErrUnknownTemplate, func() error { _, _, err := pred.ForecastBatch([]int{71, bad}, 2); return err })
		add("ComparePolicies", ErrUnknownTemplate, func() error { _, err := ComparePolicies(wb, pred, []int{71, bad}, 2); return err })
		add("Simulate", ErrUnknownTemplate, func() error { _, err := wb.Simulate(mix); return err })
		add("SimulateIsolated", ErrUnknownTemplate, func() error { _, err := wb.SimulateIsolated(bad); return err })
		add("SimulateAdhoc", ErrUnknownTemplate, func() error { return f64(wb.SimulateAdhoc(888, plan, mix)) })
		add("RunBatch", ErrUnknownTemplate, func() error { _, _, err := wb.RunBatch([]int{71, bad}, 2); return err })
	}

	add("PredictKnown empty", ErrEmptyMix, func() error { return f64(pred.PredictKnown(71, nil)) })
	add("PredictBatch empty", ErrEmptyMix, func() error { _, err := pred.PredictBatch(&pbuf, 71, [][]int{{2}, {}}); return err })
	add("Explain empty", ErrEmptyMix, func() error { return f64(pred.Explain(&ebuf, 71, nil)) })
	add("Feedback empty", ErrEmptyMix, func() error { _, err := pred.Feedback(71, nil, 10); return err })
	add("PredictNew empty", ErrEmptyMix, func() error { return f64(pred.PredictNew(adhoc, nil, SpoilerMeasured)) })
	add("Simulate empty", ErrEmptyMix, func() error { _, err := wb.Simulate(nil); return err })

	add("PredictKnown long", ErrUntrainedMPL, func() error { return f64(pred.PredictKnown(71, long)) })
	add("PredictBatch long", ErrUntrainedMPL, func() error { _, err := pred.PredictBatch(&pbuf, 71, [][]int{{2}, long}); return err })
	add("Explain long", ErrUntrainedMPL, func() error { return f64(pred.Explain(&ebuf, 71, long)) })
	add("Feedback long", ErrUntrainedMPL, func() error { _, err := pred.Feedback(71, long, 10); return err })
	add("PredictNew long", ErrUntrainedMPL, func() error { return f64(pred.PredictNew(adhoc, long, SpoilerMeasured)) })

	add("ScheduleBatch nil policy", nil, func() error { _, _, _, err := pred.ScheduleBatch([]int{71, 2, 62}, 2, nil); return err })
	add("ComparePolicies nil policy", nil, func() error { _, err := ComparePolicies(wb, pred, []int{71, 2, 62}, 2, nil); return err })
	add("SimulateAdhoc nil plan", nil, func() error { return f64(wb.SimulateAdhoc(888, nil, []int{2})) })
	add("ProfileTemplate nil plan", nil, func() error { _, err := wb.ProfileTemplate(889, nil); return err })

	for _, c := range calls {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", c.name, r)
				}
			}()
			return c.fn()
		}()
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s: no error for a bad argument", c.name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Lookups that report absence instead of an error.
	for _, bad := range []int{9999, -5, 1 << 40} {
		if _, ok := pred.QSModelFor(bad, 2); ok {
			t.Errorf("QSModelFor(%d) found a model", bad)
		}
		if _, ok := wb.Template(bad); ok {
			t.Errorf("Template(%d) found stats", bad)
		}
		if d := wb.TemplateDescription(bad); d != "" {
			t.Errorf("TemplateDescription(%d) = %q", bad, d)
		}
	}
}
