package core

import "fmt"

// This file implements Section 4: the Concurrent Query Intensity metric and
// its two ablations (Baseline I/O and Positive I/O), exactly following
// Equations 2–5 and Table 1's notation. All three run against the
// precomputed flat knowledge-base index (cqiindex.go) — slot arithmetic
// into contiguous slabs, no nested lookups — and allocate nothing on the
// steady path. The arithmetic is ordered identically to the reference
// implementation so results are bit-for-bit stable across refactors.

// intensitySlot is r_c (Eq. 4) on the flat index: ioSecs is the
// precomputed IsolatedLatency·IOFraction product. Negative estimates
// (I/O entirely covered by shared scans) are truncated to zero.
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
// concurrent templates against a known or ad-hoc primary's row. shareOf
// resolves every ID (an unknown one wraps ErrUnknownTemplate) and
// summarizes the mix's shared tables in one walk; an exact summary
// keeps the slots, so no ID is resolved twice. τ (Eq. 3) is computed
// per concurrent without allocating; a concurrent whose scan list misses
// every table in sh.cand has τ = 0, so its term is the row's term0. An
// empty mix has CQI 0. A non-nil terms (len(concurrent) entries) records
// each neighbor's r_c (Eq. 4) in summation order, for PredictExplain's
// decomposition and the operator model's per-neighbor loads.
func (idx *cqiIndex) cqiSlot(row *primaryRow, concurrent []int, terms []float64) (float64, error) {
	if len(concurrent) == 0 {
		return 0, nil
	}
	var sh mixShare
	if bad := idx.shareOf(&sh, row, concurrent); bad >= 0 {
		return 0, fmt.Errorf("core: %w: concurrent template %d", ErrUnknownTemplate, concurrent[bad])
	}
	var sum float64
	for i, id := range concurrent {
		var term float64
		if !sh.exact {
			ci := idx.posOf(id)
			term = idx.intensitySlot(ci, row.omega[ci], idx.tauSlot(row, ci, concurrent))
		} else if ci := int(sh.slot[i]); idx.listFold[ci]&sh.cand == 0 {
			term = row.term0[ci]
		} else {
			term = idx.intensitySlot(ci, row.omega[ci], idx.tauShared(ci, &sh))
		}
		if terms != nil {
			terms[i] = term
		}
		sum += term
	}
	return sum / float64(len(concurrent)), nil
}

// CQI returns r_{t,m} (Eq. 5): the mean competing-I/O intensity of the
// concurrent queries when `primary` executes with `concurrent` (template
// IDs). It is the independent variable of every QS model. The shared-scan
// savings ω_c (Eq. 2) come from the precomputed pairwise slab; the
// non-primary sharing term τ_c (Eq. 3) is mix-dependent and computed per
// call, still without allocating. An empty mix has CQI 0; an unknown ID
// returns an error wrapping ErrUnknownTemplate.
func (k *Knowledge) CQI(primary int, concurrent []int) (float64, error) {
	idx := k.idx
	pi := idx.posOf(primary)
	if pi < 0 {
		return 0, fmt.Errorf("core: %w: template %d", ErrUnknownTemplate, primary)
	}
	row := idx.row(pi)
	return idx.cqiSlot(&row, concurrent, nil)
}

// CQIForStats is CQI for an ad-hoc primary, one not present in the
// knowledge base: its row is filled from its scan set for this call, then
// priced by the same kernel. The concurrent templates must be known.
func (k *Knowledge) CQIForStats(primary TemplateStats, concurrent []int) (float64, error) {
	idx := k.idx
	row := idx.adhocRow(primary.Scans)
	return idx.cqiSlot(&row, concurrent, nil)
}

// BaselineIO is the first Table 2 ablation: the mean isolated I/O fraction
// of the concurrent queries, ignoring all interactions.
func (k *Knowledge) BaselineIO(concurrent []int) (float64, error) {
	if len(concurrent) == 0 {
		return 0, nil
	}
	idx := k.idx
	var sum float64
	for _, id := range concurrent {
		ci := idx.posOf(id)
		if ci < 0 {
			return 0, fmt.Errorf("core: %w: concurrent template %d", ErrUnknownTemplate, id)
		}
		sum += idx.hot[ci].ioFrac
	}
	return sum / float64(len(concurrent)), nil
}

// PositiveIO is the second Table 2 ablation: baseline I/O minus the shared
// scans with the primary (ω) but ignoring sharing among non-primaries (τ).
func (k *Knowledge) PositiveIO(primary int, concurrent []int) (float64, error) {
	idx := k.idx
	pi := idx.posOf(primary)
	if pi < 0 {
		return 0, fmt.Errorf("core: %w: template %d", ErrUnknownTemplate, primary)
	}
	if len(concurrent) == 0 {
		return 0, nil
	}
	row := idx.row(pi)
	var sum float64
	for _, id := range concurrent {
		ci := idx.posOf(id)
		if ci < 0 {
			return 0, fmt.Errorf("core: %w: concurrent template %d", ErrUnknownTemplate, id)
		}
		sum += row.term0[ci]
	}
	return sum / float64(len(concurrent)), nil
}
