package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// predictorFixture builds a knowledge base and synthetic observations where
// the continuum point is exactly linear in the CQI, so training must
// produce perfect predictions.
func predictorFixture(t *testing.T) (*Knowledge, []Observation) {
	t.Helper()
	return fixture(t, false)
}

// wideFixture is predictorFixture plus MPL 9: a spoiler latency for every
// template and, per primary, one observation for each eight-neighbour mix
// {c, c, 2, 3, 2, 3, 2, 3}. Eight neighbours exceed maxSharers, so these
// mixes take the kernel's inexact τ path.
func wideFixture(t *testing.T) (*Knowledge, []Observation) {
	t.Helper()
	return fixture(t, true)
}

func fixture(t *testing.T, wide bool) (*Knowledge, []Observation) {
	t.Helper()
	templates := []struct {
		id    int
		lmin  float64
		p     float64
		scans []string
	}{
		{1, 200, 0.8, []string{"F"}},
		{2, 400, 0.9, []string{"F", "G"}},
		{3, 100, 1.0, []string{"G"}},
		{4, 300, 0.5, nil},
		{5, 500, 0.95, []string{"F"}},
	}
	var stats []TemplateStats
	for _, tpl := range templates {
		scans := make(map[string]bool)
		for _, f := range tpl.scans {
			scans[f] = true
		}
		stats = append(stats, TemplateStats{
			ID: tpl.id, IsolatedLatency: tpl.lmin, IOFraction: tpl.p,
			Scans: scans,
			SpoilerLatency: map[int]float64{
				2: tpl.lmin * 2.2,
				3: tpl.lmin * 3.4,
			},
		})
		if wide {
			stats[len(stats)-1].SpoilerLatency[9] = tpl.lmin * 10.6
		}
	}
	k := NewKnowledge(map[string]float64{"F": 100, "G": 50}, stats)

	// For each template, generate observations with c = µ·r + b for a
	// per-template ground-truth QS model.
	qsFor := func(id int) QSModel {
		return QSModel{Mu: 0.5 + 0.05*float64(id), B: 0.1 + 0.01*float64(id)}
	}
	var obs []Observation
	ids := k.IDs()
	for _, primary := range ids {
		cont2, _ := k.ContinuumFor(primary, 2)
		cont3, _ := k.ContinuumFor(primary, 3)
		for _, c1 := range ids {
			// MPL 2 pair.
			r := noErr(t)(k.CQI(primary, []int{c1}))
			obs = append(obs, Observation{
				Primary: primary, Concurrent: []int{c1},
				Latency: cont2.Latency(qsFor(primary).Point(r)),
			})
			// MPL 3 triple.
			for _, c2 := range ids {
				if c2 < c1 {
					continue
				}
				r3 := noErr(t)(k.CQI(primary, []int{c1, c2}))
				obs = append(obs, Observation{
					Primary: primary, Concurrent: []int{c1, c2},
					Latency: cont3.Latency(qsFor(primary).Point(r3)),
				})
			}
			if wide { // MPL 9
				cont9, _ := k.ContinuumFor(primary, 9)
				mix := []int{c1, c1, 2, 3, 2, 3, 2, 3}
				r9 := noErr(t)(k.CQI(primary, mix))
				obs = append(obs, Observation{
					Primary: primary, Concurrent: mix,
					Latency: cont9.Latency(qsFor(primary).Point(r9)),
				})
			}
		}
	}
	return k, obs
}

func TestTrainAndPredictKnown(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mpls := p.MPLs()
	if len(mpls) != 2 || mpls[0] != 2 || mpls[1] != 3 {
		t.Fatalf("MPLs = %v", mpls)
	}
	// Predictions must reproduce the generating model exactly.
	for _, o := range obs {
		got, err := p.PredictKnown(o.Primary, o.Concurrent)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, o.Latency, 1e-6*(1+o.Latency)) {
			t.Fatalf("T%d in %v: predicted %g, want %g", o.Primary, o.Concurrent, got, o.Latency)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	k, obs := predictorFixture(t)
	if _, err := Train(k, nil, TrainOptions{}); err == nil {
		t.Fatal("expected error with no observations")
	}
	// Observations at an MPL without spoiler latencies must error.
	bad := []Observation{{Primary: 1, Concurrent: []int{2, 3, 4}, Latency: 100}}
	if _, err := Train(k, bad, TrainOptions{}); err == nil {
		t.Fatal("expected error for missing spoiler latency")
	}
	_ = obs
}

// TestTrainErrorIsFirstFailingGroup checks that Train names the first
// failing (primary, MPL) group in input order, on every call: three
// templates lack an MPL-2 spoiler latency, and the observations come in
// descending primary order, so that group is template 5's.
func TestTrainErrorIsFirstFailingGroup(t *testing.T) {
	k, obs := predictorFixture(t)
	templates := k.Templates()
	for i := range templates {
		if templates[i].ID >= 3 {
			delete(templates[i].SpoilerLatency, 2)
		}
	}
	k = NewKnowledge(k.ScanTimes(), templates)
	slices.Reverse(obs)
	const want = "core: no spoiler latency for template 5 at MPL 2"
	for call := 0; call < 20; call++ {
		_, err := Train(k, obs, TrainOptions{})
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", call, err, want)
		}
	}
}

func TestTrainDropsOutliers(t *testing.T) {
	k, obs := predictorFixture(t)
	// Inject wildly exceeding observations for template 1 at MPL 2; with
	// DropOutliers they must not destroy the fit.
	cont, _ := k.ContinuumFor(1, 2)
	polluted := append([]Observation(nil), obs...)
	for i := 0; i < 3; i++ {
		polluted = append(polluted, Observation{
			Primary: 1, Concurrent: []int{2}, Latency: cont.Max * 10,
		})
	}
	clean, err := Train(k, polluted, TrainOptions{DropOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Train(k, polluted, TrainOptions{DropOutliers: false})
	if err != nil {
		t.Fatal(err)
	}
	want := obs[0].Latency
	gotClean, _ := clean.PredictKnown(obs[0].Primary, obs[0].Concurrent)
	gotDirty, _ := dirty.PredictKnown(obs[0].Primary, obs[0].Concurrent)
	if math.Abs(gotClean-want) > math.Abs(gotDirty-want) {
		t.Fatalf("outlier filtering made predictions worse: clean %g dirty %g want %g", gotClean, gotDirty, want)
	}
	if !almostEq(gotClean, want, 1e-6*(1+want)) {
		t.Fatalf("clean prediction %g, want %g", gotClean, want)
	}
}

func TestPredictKnownErrors(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictKnown(1, []int{2, 3, 4, 5}); err == nil {
		t.Fatal("expected error for untrained MPL")
	}
	if _, err := p.PredictKnown(999, []int{2}); err == nil {
		t.Fatal("expected error for unknown template")
	}
	if _, err := p.PredictKnown(1, []int{2, 999}); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("unknown concurrent template: err = %v, want ErrUnknownTemplate", err)
	}
}

func TestPredictNewWithMeasuredSpoiler(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newT := TemplateStats{
		ID: 99, IsolatedLatency: 350, IOFraction: 0.85,
		Scans:          map[string]bool{"F": true},
		SpoilerLatency: map[int]float64{2: 770},
	}
	got, err := p.PredictNew(newT, []int{3}, NewTemplateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got < newT.IsolatedLatency/2 || got > newT.SpoilerLatency[2]*1.5 {
		t.Fatalf("prediction %g wildly outside the continuum", got)
	}
}

func TestPredictNewRequiresSpoilerSource(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newT := TemplateStats{ID: 99, IsolatedLatency: 350, IOFraction: 0.85,
		SpoilerLatency: map[int]float64{}}
	if _, err := p.PredictNew(newT, []int{3}, NewTemplateOptions{}); err == nil {
		t.Fatal("expected error without spoiler latency or predictor")
	}
}

func TestPredictNewWithPredictor(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := NewKNNSpoilerPredictor(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	newT := TemplateStats{
		ID: 99, IsolatedLatency: 350, IOFraction: 0.85,
		WorkingSetBytes: 1e8, SpoilerLatency: map[int]float64{},
	}
	got, err := p.PredictNew(newT, []int{3}, NewTemplateOptions{Spoiler: knn})
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("prediction %g", got)
	}
}

func TestPredictNewWithExplicitQS(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := QSModel{Mu: 0.6, B: 0.12}
	newT := TemplateStats{
		ID: 99, IsolatedLatency: 350, IOFraction: 0.85,
		Scans:          map[string]bool{"F": true},
		SpoilerLatency: map[int]float64{2: 770},
	}
	r := noErr(t)(k.CQIForStats(newT, []int{3}))
	want := Continuum{Min: 350, Max: 770}.Latency(qs.Point(r))
	got, err := p.PredictNew(newT, []int{3}, NewTemplateOptions{QS: &qs})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("got %g, want %g", got, want)
	}
}

func TestPerturbStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := TemplateStats{ID: 1, IsolatedLatency: 100, IOFraction: 0.9, WorkingSetBytes: 1e9}
	anyChanged := false
	for i := 0; i < 50; i++ {
		p := PerturbStats(base, 0.25, rng)
		if p.IsolatedLatency < 75 || p.IsolatedLatency > 125 {
			t.Fatalf("latency perturbed outside ±25%%: %g", p.IsolatedLatency)
		}
		if p.IOFraction > 1 {
			t.Fatalf("I/O fraction %g exceeds 1", p.IOFraction)
		}
		if p.WorkingSetBytes < 0.75e9 || p.WorkingSetBytes > 1.25e9 {
			t.Fatalf("working set outside bounds: %g", p.WorkingSetBytes)
		}
		if p.IsolatedLatency != base.IsolatedLatency {
			anyChanged = true
		}
	}
	if !anyChanged {
		t.Fatal("perturbation never changed anything")
	}
}

// TestTemplateCopiesAreTheCallers writes into the maps Template and
// Templates return: the knowledge base must not see it, so CQI,
// PredictKnown and Snapshot read as before.
func TestTemplateCopiesAreTheCallers(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mix := []int{3, 5}
	cqi := noErr(t)(k.CQI(2, mix))
	pred := noErr(t)(p.PredictKnown(2, mix))
	var before bytes.Buffer
	if err := json.NewEncoder(&before).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}

	tpl, ok := k.Template(2)
	if !ok {
		t.Fatal("template 2 missing")
	}
	tpl.Scans["G"] = false
	tpl.Scans["H"] = true
	tpl.SpoilerLatency[3] = 1
	for _, ts := range k.Templates() {
		ts.Scans["F"] = !ts.Scans["F"]
		ts.SpoilerLatency[2] = 2
	}

	if got := noErr(t)(k.CQI(2, mix)); math.Float64bits(got) != math.Float64bits(cqi) {
		t.Errorf("CQI after writing a returned map = %v, want %v", got, cqi)
	}
	if got := noErr(t)(p.PredictKnown(2, mix)); math.Float64bits(got) != math.Float64bits(pred) {
		t.Errorf("PredictKnown after writing a returned map = %v, want %v", got, pred)
	}
	var after bytes.Buffer
	if err := json.NewEncoder(&after).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("Snapshot changed after writing a returned map:\nbefore %s\nafter  %s", before.Bytes(), after.Bytes())
	}
	if iso, ok := k.IsolatedLatency(2); !ok || iso != 400 {
		t.Errorf("IsolatedLatency(2) = %v, %v; want 400, true", iso, ok)
	}
	if _, ok := k.IsolatedLatency(99); ok {
		t.Error("IsolatedLatency(99) found an unknown template")
	}
}
