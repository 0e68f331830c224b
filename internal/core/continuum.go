package core

// This file implements Section 5.1: the performance continuum, the
// normalized [l_min, l_max] latency range each template's QS model predicts
// into.

// Continuum is a template's performance range at one MPL.
type Continuum struct {
	// Min is l_min, the isolated latency (best case).
	Min float64
	// Max is l_max, the spoiler latency (worst case).
	Max float64
}

// Valid reports whether the continuum is usable (a positive-width range).
func (c Continuum) Valid() bool { return c.Max > c.Min && c.Min > 0 }

// Point maps an observed latency to its continuum point c_{t,m} (Eq. 6):
// 0 at the isolated latency, 1 at the spoiler latency. Values outside
// [0, 1] are possible (the paper's >105%-of-spoiler outliers) and are
// returned untruncated so callers can detect them.
func (c Continuum) Point(latency float64) float64 {
	if !c.Valid() {
		return 0
	}
	return (latency - c.Min) / (c.Max - c.Min)
}

// Latency reverses Eq. 6, scaling a continuum point back to seconds.
func (c Continuum) Latency(point float64) float64 {
	return c.Min + point*(c.Max-c.Min)
}

// ContinuumFor assembles the continuum of template id at the given MPL from
// the knowledge base's measured isolated and spoiler latencies. ok is false
// when the spoiler latency for that MPL has not been sampled.
func (k *Knowledge) ContinuumFor(id int, mpl int) (Continuum, bool) {
	t, ok := k.templates[id]
	if !ok {
		return Continuum{}, false
	}
	lmax, ok := t.SpoilerLatency[mpl]
	if !ok {
		return Continuum{}, false
	}
	return Continuum{Min: t.IsolatedLatency, Max: lmax}, true
}

// OutlierThreshold is the fraction of the spoiler latency above which the
// paper discards an observation as an outlier (Section 6.1: latency greater
// than 105% of spoiler latency, occurring at ~4% frequency).
const OutlierThreshold = 1.05

// IsOutlier reports whether an observed latency measurably exceeds the
// continuum (observed > 105% of l_max).
func (c Continuum) IsOutlier(latency float64) bool {
	return c.Max > 0 && latency > OutlierThreshold*c.Max
}
