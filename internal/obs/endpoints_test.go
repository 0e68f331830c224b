package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
)

// Golden-decode coverage for the /quality and /blame JSON endpoints:
// the field names are wire contract (dashboards parse them), and the
// payloads must be deterministic — arrays ordered by template or by
// (primary, neighbor), never by map iteration.

func TestQualityEndpointGolden(t *testing.T) {
	var q *Quality // nil-safe: mounted unconditionally
	rec := httptest.NewRecorder()
	q.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	const golden = `{
  "samples": 0,
  "healthy": 0,
  "degraded": 0,
  "stale": 0,
  "templates": []
}
`
	if got := rec.Body.String(); got != golden {
		t.Errorf("empty /quality body:\n%s\nwant:\n%s", got, golden)
	}

	q = NewQuality(DriftConfig{})
	q.Observe(9, 0.5)
	q.Observe(3, -0.25)
	rec = httptest.NewRecorder()
	q.ServeHTTP(rec, nil)
	var payload struct {
		Samples   int64 `json:"samples"`
		Templates []map[string]json.RawMessage
	}
	body := rec.Body.Bytes()
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(body, &generic); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "/quality", generic, []string{"samples", "healthy", "degraded", "stale", "templates"})
	var templates []map[string]json.RawMessage
	if err := json.Unmarshal(generic["templates"], &templates); err != nil {
		t.Fatal(err)
	}
	if len(templates) != 2 {
		t.Fatalf("templates = %d entries, want 2", len(templates))
	}
	assertKeys(t, "/quality templates[0]", templates[0], []string{
		"template", "count", "mre", "window_mre", "p50", "p90", "p99", "state", "transitions", "last_error",
	})
	// Deterministic ordering: ascending template ID, independent of
	// observation or map order.
	ids := templateField(t, templates, "template")
	if !sort.IntsAreSorted(ids) {
		t.Errorf("templates not sorted by ID: %v", ids)
	}
	// Byte determinism: serving twice yields identical bodies.
	rec2 := httptest.NewRecorder()
	q.ServeHTTP(rec2, nil)
	if rec2.Body.String() != string(body) {
		t.Error("/quality body differs between identical snapshots")
	}
}

func TestBlameEndpointGolden(t *testing.T) {
	var b *Blame // nil-safe: mounted unconditionally
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	const golden = `{
  "samples": 0,
  "pairs": [],
  "aggressors": [],
  "victims": []
}
`
	if got := rec.Body.String(); got != golden {
		t.Errorf("empty /blame body:\n%s\nwant:\n%s", got, golden)
	}

	b = NewBlame(BlameConfig{})
	b.Observe(5, []int{9, 2}, []float64{1.5, 0.25})
	b.Observe(2, []int{5}, []float64{3})
	rec = httptest.NewRecorder()
	b.ServeHTTP(rec, nil)
	body := rec.Body.Bytes()
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(body, &generic); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "/blame", generic, []string{"samples", "pairs", "aggressors", "victims"})
	var pairs []map[string]json.RawMessage
	if err := json.Unmarshal(generic["pairs"], &pairs); err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d entries, want 3", len(pairs))
	}
	assertKeys(t, "/blame pairs[0]", pairs[0], []string{
		"primary", "neighbor", "count", "seconds", "ewma_seconds", "last_seconds",
	})
	// Deterministic ordering: (primary, neighbor) ascending.
	prim := templateField(t, pairs, "primary")
	if !sort.IntsAreSorted(prim) {
		t.Errorf("pairs not sorted by primary: %v", prim)
	}
	var ranks []map[string]json.RawMessage
	if err := json.Unmarshal(generic["aggressors"], &ranks); err != nil {
		t.Fatal(err)
	}
	if len(ranks) == 0 {
		t.Fatal("no aggressors reported")
	}
	assertKeys(t, "/blame aggressors[0]", ranks[0], []string{"template", "seconds", "count"})
	rec2 := httptest.NewRecorder()
	b.ServeHTTP(rec2, nil)
	if rec2.Body.String() != string(body) {
		t.Error("/blame body differs between identical snapshots")
	}
}

func assertKeys(t *testing.T, where string, m map[string]json.RawMessage, want []string) {
	t.Helper()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(got, sorted) {
		t.Errorf("%s fields = %v, want %v", where, got, sorted)
	}
}

func templateField(t *testing.T, entries []map[string]json.RawMessage, field string) []int {
	t.Helper()
	out := make([]int, len(entries))
	for i, e := range entries {
		if err := json.Unmarshal(e[field], &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
