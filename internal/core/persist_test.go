package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPredictorRoundTrip(t *testing.T) {
	k, obs := predictorFixture(t)
	orig, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Trained state survives byte-for-byte: identical MPLs, models, and
	// predictions for every observation.
	if len(loaded.MPLs()) != len(orig.MPLs()) {
		t.Fatalf("MPLs %v vs %v", loaded.MPLs(), orig.MPLs())
	}
	for _, o := range obs {
		want, err := orig.PredictKnown(o.Primary, o.Concurrent)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PredictKnown(o.Primary, o.Concurrent)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prediction drifted after reload: %g vs %g", got, want)
		}
	}
	// Knowledge details survive too.
	if loaded.know.ScanTime("F") != k.ScanTime("F") {
		t.Fatal("scan times lost")
	}
	lt := loaded.know.templates[2]
	ot := k.templates[2]
	if !lt.Scans["F"] || lt.SpoilerLatency[2] != ot.SpoilerLatency[2] {
		t.Fatal("template details lost")
	}
}

func TestLoadPredictorErrors(t *testing.T) {
	if _, err := LoadPredictor(strings.NewReader("{")); err == nil {
		t.Fatal("malformed JSON must error")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"version":99,"templates":[{"id":1}]}`)); err == nil {
		t.Fatal("wrong version must error")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("empty snapshot must error")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"version":1,"templates":[{"id":1}]}`)); err == nil {
		t.Fatal("snapshot without models must error")
	}
}

// TestSnapshotValidation covers the corruption classes Validate rejects:
// NaN/negative latencies, duplicate template IDs, and models referencing
// templates the snapshot does not carry. Each rejection must name the
// offending entry.
func TestSnapshotValidation(t *testing.T) {
	model := `"models":[{"mpl":2,"template":1,"mu":1,"b":0}]`
	cases := []struct {
		name, body, wantSub string
	}{
		{"NaN isolated latency",
			`{"version":1,"templates":[{"id":1,"isolated_latency":null}],` + model + `}`,
			""}, // JSON null decodes to 0 — covered by the explicit NaN case below via math
		{"negative isolated latency",
			`{"version":1,"templates":[{"id":1,"isolated_latency":-3}],` + model + `}`,
			"template 1"},
		{"negative spoiler latency",
			`{"version":1,"templates":[{"id":1,"isolated_latency":5,"spoilers":[{"mpl":2,"latency":-1}]}],` + model + `}`,
			"spoiler latency"},
		{"duplicate template ids",
			`{"version":1,"templates":[{"id":1,"isolated_latency":5},{"id":1,"isolated_latency":6}],` + model + `}`,
			"duplicate template id 1"},
		{"negative scan time",
			`{"version":1,"templates":[{"id":1,"isolated_latency":5}],"scan_times":{"F":-2},` + model + `}`,
			`scan time of "F"`},
		{"model references unknown template",
			`{"version":1,"templates":[{"id":1,"isolated_latency":5}],"models":[{"mpl":2,"template":9,"mu":1,"b":0}]}`,
			"unknown template 9"},
	}
	for _, c := range cases {
		if c.wantSub == "" {
			continue
		}
		_, err := LoadPredictor(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}

	// NaN cannot be written in JSON; build the snapshot in memory.
	s := &Snapshot{
		Version:   1,
		Templates: []TemplateSnapshot{{ID: 1, IsolatedLatency: math.NaN()}},
		Models:    []modelSnapshot{{MPL: 2, Template: 1, Mu: 1, B: 0}},
	}
	if _, err := PredictorFromSnapshot(s); err == nil || !strings.Contains(err.Error(), "isolated latency") {
		t.Errorf("NaN isolated latency: got %v", err)
	}
	s = &Snapshot{
		Version:   1,
		Templates: []TemplateSnapshot{{ID: 1, IsolatedLatency: 5}},
		Models:    []modelSnapshot{{MPL: 2, Template: 1, Mu: math.NaN(), B: 0}},
	}
	if _, err := PredictorFromSnapshot(s); err == nil || !strings.Contains(err.Error(), "NaN coefficients") {
		t.Errorf("NaN model coefficients: got %v", err)
	}
}

// TestTemplateSnapshotRoundTrip: TemplateStats → TemplateSnapshot → Stats
// is lossless, and the snapshot encoding is canonical (sorted scans and
// spoilers) — the property the training checkpoints rely on.
func TestTemplateSnapshotRoundTrip(t *testing.T) {
	orig := TemplateStats{
		ID:              7,
		IsolatedLatency: 123.456,
		IOFraction:      0.87,
		WorkingSetBytes: 2.5e9,
		PlanSteps:       9,
		RecordsAccessed: 4.2e7,
		Scans:           map[string]bool{"zeta": true, "alpha": true},
		SpoilerLatency:  map[int]float64{3: 400.25, 2: 250.5},
	}
	snap := NewTemplateSnapshot(orig)
	if snap.Scans[0] != "alpha" || snap.Spoilers[0].MPL != 2 {
		t.Fatalf("snapshot not canonical: %+v", snap)
	}
	back := snap.Stats()
	if back.ID != orig.ID || back.IsolatedLatency != orig.IsolatedLatency ||
		back.IOFraction != orig.IOFraction || back.WorkingSetBytes != orig.WorkingSetBytes ||
		back.PlanSteps != orig.PlanSteps || back.RecordsAccessed != orig.RecordsAccessed {
		t.Fatalf("scalar fields drifted: %+v vs %+v", back, orig)
	}
	if len(back.Scans) != 2 || !back.Scans["alpha"] || !back.Scans["zeta"] {
		t.Fatalf("scan set drifted: %+v", back.Scans)
	}
	if back.SpoilerLatency[2] != 250.5 || back.SpoilerLatency[3] != 400.25 {
		t.Fatalf("spoiler map drifted: %+v", back.SpoilerLatency)
	}
	// And the JSON bytes are deterministic.
	a, _ := json.Marshal(NewTemplateSnapshot(orig))
	b, _ := json.Marshal(NewTemplateSnapshot(orig))
	if string(a) != string(b) {
		t.Fatal("TemplateSnapshot must marshal deterministically")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	k, obs := predictorFixture(t)
	p, err := Train(k, obs, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	// Everything except Go's map-ordered scan_times object is emitted in
	// sorted slices; the JSON encoder also sorts map keys, so the files
	// must be identical.
	if a.String() != b.String() {
		t.Fatal("snapshot serialization must be deterministic")
	}
}
