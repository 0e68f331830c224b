package core

import (
	"testing"
	"testing/quick"
)

func TestContinuumPointAndLatency(t *testing.T) {
	c := Continuum{Min: 100, Max: 300}
	if !c.Valid() {
		t.Fatal("continuum must be valid")
	}
	if c.Point(100) != 0 {
		t.Fatal("isolated latency maps to 0")
	}
	if c.Point(300) != 1 {
		t.Fatal("spoiler latency maps to 1")
	}
	if c.Point(200) != 0.5 {
		t.Fatal("midpoint maps to 0.5")
	}
	// Out-of-range values are preserved, not clamped.
	if c.Point(400) != 1.5 {
		t.Fatal("overflow must not clamp")
	}
	if c.Point(50) != -0.25 {
		t.Fatal("negative points must be possible (positive interactions)")
	}
	if c.Latency(0.5) != 200 {
		t.Fatal("Latency must invert Point")
	}
}

func TestContinuumInvalid(t *testing.T) {
	bad := []Continuum{
		{Min: 100, Max: 100},
		{Min: 100, Max: 50},
		{Min: 0, Max: 100},
	}
	for i, c := range bad {
		if c.Valid() {
			t.Errorf("case %d: continuum %+v should be invalid", i, c)
		}
		if c.Point(123) != 0 {
			t.Errorf("case %d: invalid continuum must map to 0", i)
		}
	}
}

func TestContinuumOutlier(t *testing.T) {
	c := Continuum{Min: 100, Max: 200}
	if c.IsOutlier(205) {
		t.Fatal("205 is within 105% of the spoiler")
	}
	if !c.IsOutlier(211) {
		t.Fatal("211 exceeds 105% of the spoiler")
	}
}

func TestContinuumForFromKnowledge(t *testing.T) {
	k := NewKnowledge(nil, []TemplateStats{{
		ID: 1, IsolatedLatency: 100,
		SpoilerLatency: map[int]float64{3: 400},
	}})
	c, ok := k.ContinuumFor(1, 3)
	if !ok || c.Min != 100 || c.Max != 400 {
		t.Fatalf("continuum %+v ok=%v", c, ok)
	}
	if _, ok := k.ContinuumFor(1, 5); ok {
		t.Fatal("missing MPL must report !ok")
	}
	if _, ok := k.ContinuumFor(99, 3); ok {
		t.Fatal("missing template must report !ok")
	}
}

// Property: Latency(Point(l)) == l for valid continuums.
func TestContinuumRoundTrip(t *testing.T) {
	f := func(minRaw, widthRaw, latRaw uint16) bool {
		min := 1 + float64(minRaw)
		max := min + 1 + float64(widthRaw)
		c := Continuum{Min: min, Max: max}
		l := float64(latRaw)
		back := c.Latency(c.Point(l))
		return almostEq(back, l, 1e-9*(1+l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
