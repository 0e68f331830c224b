package experiments

import (
	"testing"
)

func TestPick(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	got := pick(xs, []int{3, 0})
	if len(got) != 2 || got[0] != 40 || got[1] != 10 {
		t.Fatalf("pick = %v", got)
	}
	if len(pick(xs, nil)) != 0 {
		t.Fatal("empty index must give empty slice")
	}
}

func TestMeanOfMap(t *testing.T) {
	if meanOfMap(nil) != 0 {
		t.Fatal("empty map must give 0")
	}
	m := map[int]float64{1: 2, 2: 4}
	if meanOfMap(m) != 3 {
		t.Fatalf("mean = %g", meanOfMap(m))
	}
}

func TestSignedR2(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := []float64{2, 4, 6, 8}
	down := []float64{8, 6, 4, 2}
	if got := signedR2(xs, up); got < 0.99 {
		t.Fatalf("positive trend R² = %g", got)
	}
	if got := signedR2(xs, down); got > -0.99 {
		t.Fatalf("negative trend R² = %g", got)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtPct(0.123) != "12.3%" {
		t.Fatalf("fmtPct = %q", fmtPct(0.123))
	}
	if fmtF(1.23456) != "1.235" {
		t.Fatalf("fmtF = %q", fmtF(1.23456))
	}
	if fmtHours(7200) != "2.0 h" {
		t.Fatalf("fmtHours = %q", fmtHours(7200))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(xs, 0.5) != 5 {
		t.Fatalf("p50 = %g", percentile(xs, 0.5))
	}
	if percentile(xs, 0.95) != 10 {
		t.Fatalf("p95 = %g", percentile(xs, 0.95))
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	if percentile([]float64{7}, 0.01) != 7 {
		t.Fatal("single-element percentile wrong")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]float64{"b": 1, "a": 2, "c": 3}
	keys := sortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestSubsample(t *testing.T) {
	env := sharedEnv(t)
	var xs [][]float64
	var ys []float64
	for i := 0; i < maxMLTrain+100; i++ {
		xs = append(xs, []float64{float64(i)})
		ys = append(ys, float64(i))
	}
	gotX, gotY := subsample(env, 1, xs, ys)
	if len(gotX) != maxMLTrain || len(gotY) != maxMLTrain {
		t.Fatalf("subsampled to %d, want %d", len(gotX), maxMLTrain)
	}
	// Pairs stay aligned.
	for i := range gotX {
		if gotX[i][0] != gotY[i] {
			t.Fatal("subsample broke feature/target alignment")
		}
	}
	// Small inputs pass through untouched.
	sx, sy := subsample(env, 1, xs[:10], ys[:10])
	if len(sx) != 10 || len(sy) != 10 {
		t.Fatal("small input must pass through")
	}
}

func TestFlexibleLatency(t *testing.T) {
	env := sharedEnv(t)
	models, err := fitQSModels(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	predict := flexibleLatency(env, models)

	iso, err := predict(71, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iso != must(template(env.Know, 71)).IsolatedLatency {
		t.Fatal("empty mix must return isolated latency")
	}

	// A trained MPL predicts above isolation.
	l2, err := predict(71, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if l2 < iso {
		t.Fatalf("concurrent prediction %g below isolated %g", l2, iso)
	}

	// An untrained (large) mix size falls back to the nearest continuum.
	big := []int{2, 22, 26, 33, 61, 62}
	lBig, err := predict(71, big)
	if err != nil {
		t.Fatal(err)
	}
	if lBig < iso {
		t.Fatal("fallback prediction must be floored at isolation")
	}

	if _, err := predict(424242, []int{2}); err == nil {
		t.Fatal("unknown template must error")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "bb"}, []float64{1, 2}, nil, 10)
	lines := splitLines(out)
	if len(lines) != 2 {
		t.Fatalf("chart lines: %d", len(lines))
	}
	// The larger value gets the full width.
	if countRune(lines[1], '█') != 10 {
		t.Fatalf("max bar width wrong: %q", lines[1])
	}
	if countRune(lines[0], '█') != 5 {
		t.Fatalf("half bar width wrong: %q", lines[0])
	}
	// Degenerate inputs render nothing.
	if BarChart(nil, nil, nil, 10) != "" {
		t.Fatal("empty chart must be empty")
	}
	if BarChart([]string{"a"}, []float64{1, 2}, nil, 10) != "" {
		t.Fatal("mismatched chart must be empty")
	}
}

func TestParseCell(t *testing.T) {
	cases := map[string]float64{
		"19.4%":  19.4,
		"3580 s": 3580,
		"2.49x":  2.49,
		"-3.5":   -3.5,
	}
	for in, want := range cases {
		got, ok := parseCell(in)
		if !ok || got != want {
			t.Errorf("parseCell(%q) = %g, %v", in, got, ok)
		}
	}
	if _, ok := parseCell("n/a"); ok {
		t.Fatal("non-numeric cell must not parse")
	}
	if _, ok := parseCell(""); ok {
		t.Fatal("empty cell must not parse")
	}
}

func TestResultChart(t *testing.T) {
	env := sharedEnv(t)
	res, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	chart := res.Chart()
	if chart == "" {
		t.Fatal("fig9 must be chartable")
	}
	if countRune(chart, '█') == 0 {
		t.Fatal("chart has no bars")
	}
	// A header-less result is not chartable.
	empty := &Result{ID: "x", Title: "t"}
	if empty.Chart() != "" {
		t.Fatal("empty result must not chart")
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range stringsSplit(s) {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

func stringsSplit(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func countRune(s string, r rune) int {
	n := 0
	for _, c := range s {
		if c == r {
			n++
		}
	}
	return n
}
