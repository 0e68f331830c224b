package core

// This file implements Section 4: the Concurrent Query Intensity metric and
// its two ablations (Baseline I/O and Positive I/O), exactly following
// Equations 2–5 and Table 1's notation. All three run against the
// precomputed flat knowledge-base index (cqiindex.go) — slot arithmetic
// into contiguous slabs, no nested lookups — and allocate nothing on the
// steady path. The arithmetic is ordered identically to the reference
// implementation so results are bit-for-bit stable across refactors.

// concurrentIntensity computes r_c (Eq. 4) from full template stats — the
// cold-path variant used by CQIForStats and the operator model. Negative
// estimates are truncated to zero (queries whose I/O is entirely covered
// by shared scans).
//
//contender:hotpath
func concurrentIntensity(c *TemplateStats, omega, tau float64) float64 {
	if c.IsolatedLatency <= 0 {
		return 0
	}
	r := (c.IsolatedLatency*c.IOFraction - omega - tau) / c.IsolatedLatency
	if r < 0 {
		return 0
	}
	return r
}

// intensitySlot is r_c (Eq. 4) on the flat index: ioSecs is the
// precomputed IsolatedLatency·IOFraction product, so the expression
// (ioSecs − ω − τ) / iso associates exactly like the stats-based form.
//
//contender:hotpath
func (idx *cqiIndex) intensitySlot(ci int, omega, tau float64) float64 {
	h := &idx.hot[ci]
	if h.iso <= 0 {
		return 0
	}
	r := (h.ioSecs - omega - tau) / h.iso
	if r < 0 {
		return 0
	}
	return r
}

// cqiSlot is the one CQI kernel: mean competing intensity of the
// concurrent templates against the primary in slot pi. ω comes from one
// row of the pairwise slab; τ is mix-dependent (Eq. 3) and computed per
// concurrent query without allocating. When terms is non-nil (it must
// hold len(concurrent) entries), each neighbor's r_c term (Eq. 4) is
// recorded into it in summation order, so PredictExplain's decomposition
// comes from the very loop that sums the CQI.
//
//contender:hotpath
func (idx *cqiIndex) cqiSlot(pi int, concurrent []int, terms []float64) float64 {
	base := pi * idx.n
	var sum float64
	for i, id := range concurrent {
		ci := idx.mustPos(id)
		tau := idx.tauSlot(pi, ci, concurrent)
		term := idx.intensitySlot(ci, idx.omega[base+ci], tau)
		if terms != nil {
			terms[i] = term
		}
		sum += term
	}
	return sum / float64(len(concurrent))
}

// CQI returns r_{t,m} (Eq. 5): the mean competing-I/O intensity of the
// concurrent queries when `primary` executes with `concurrent` (template
// IDs). It is the independent variable of every QS model. The shared-scan
// savings ω_c (Eq. 2) come from the precomputed pairwise slab; the
// non-primary sharing term τ_c (Eq. 3) is mix-dependent and computed per
// call, still without allocating.
//
//contender:hotpath
func (k *Knowledge) CQI(primary int, concurrent []int) float64 {
	if len(concurrent) == 0 {
		return 0
	}
	idx := k.index()
	return idx.cqiSlot(idx.mustPos(primary), concurrent, nil)
}

// CQIForStats is CQI with an explicit primary — used when the primary is an
// ad-hoc template not present in the knowledge base (its ω terms cannot be
// precomputed and are resolved from its scan set per call).
func (k *Knowledge) CQIForStats(primary TemplateStats, concurrent []int) float64 {
	if len(concurrent) == 0 {
		return 0
	}
	idx := k.index()
	var sum float64
	for _, id := range concurrent {
		c := &idx.tmpl[idx.mustPos(id)]
		var omega float64
		for _, sc := range c.scans {
			if primary.Scans[sc.table] {
				omega += sc.seconds
			}
		}
		tau := idx.tau(primary.Scans, c, concurrent)
		sum += concurrentIntensity(&c.stats, omega, tau)
	}
	return sum / float64(len(concurrent))
}

// BaselineIO is the first Table 2 ablation: the mean isolated I/O fraction
// of the concurrent queries, ignoring all interactions.
//
//contender:hotpath
func (k *Knowledge) BaselineIO(concurrent []int) float64 {
	if len(concurrent) == 0 {
		return 0
	}
	idx := k.index()
	var sum float64
	for _, id := range concurrent {
		sum += idx.hot[idx.mustPos(id)].ioFrac
	}
	return sum / float64(len(concurrent))
}

// PositiveIO is the second Table 2 ablation: baseline I/O minus the shared
// scans with the primary (ω) but ignoring sharing among non-primaries (τ).
//
//contender:hotpath
func (k *Knowledge) PositiveIO(primary int, concurrent []int) float64 {
	if len(concurrent) == 0 {
		return 0
	}
	idx := k.index()
	pi := idx.mustPos(primary)
	base := pi * idx.n
	var sum float64
	for _, id := range concurrent {
		ci := idx.mustPos(id)
		sum += idx.intensitySlot(ci, idx.omega[base+ci], 0)
	}
	return sum / float64(len(concurrent))
}
