package core

import "sort"

// The CQI hot path — every PredictKnown call, every candidate mix a
// scheduler evaluates — used to materialize a []TemplateStats per call and
// iterate scan-set maps in randomized order. This file precomputes a
// read-only index over the knowledge base instead, and packs the hot data
// into flat, cache-line-friendly slabs:
//
//   - posByID: a dense template-ID → slot array (map fallback for sparse
//     IDs), so hot-path ID resolution is one bounds check + one load.
//   - hot: per-slot tmplHot records (isolated latency, its product with
//     the I/O fraction, and the slot's scan-slab window) — 32 bytes each,
//     two per cache line, walked sequentially by CQI.
//   - omega: the pairwise shared-scan seconds ω(i,j) of Eq. 2 as one
//     contiguous n×n float64 slab indexed by i*n+j.
//   - scanTID/scanSec: every template's fact scans concatenated into two
//     parallel slabs (table IDs interned to small ints, s_f resolved),
//     in canonical table order.
//   - masks: per-slot scan-set bitsets (maskW words per slot), so the
//     "does template t scan table f" membership tests of Eq. 2/3 are a
//     shift and an AND instead of a string-keyed map lookup.
//
// With it, CQI, PositiveIO, BaselineIO, and the prediction pipeline run
// allocation-free, touch memory sequentially, and sum floating-point
// terms in a deterministic order. The float arithmetic is kept
// bit-identical to the pre-flattening implementation (same association,
// same division), so every golden experiment artifact is unchanged.
//
// The resolvedTemplate view (stats + sorted scans) is retained for the
// cold paths that need ad-hoc primaries or full stats: CQIForStats and
// the operator-granularity model.

// resolvedScan is one fact-table scan with its measured scan time attached.
type resolvedScan struct {
	table   string
	seconds float64 // s_f
}

// resolvedTemplate is a template's stats plus its scan set in canonical
// (table-sorted) order. The stats' maps are shared with the knowledge base
// and must be treated as read-only.
type resolvedTemplate struct {
	stats TemplateStats
	scans []resolvedScan
}

// tmplHot is the per-slot record the serving path reads: everything CQI
// needs about one concurrent template, packed into 32 bytes.
type tmplHot struct {
	ioSecs  float64 // IsolatedLatency · IOFraction, precomputed (Eq. 4 numerator head)
	iso     float64 // IsolatedLatency (the Eq. 4 divisor; ≤ 0 short-circuits to 0)
	ioFrac  float64 // IOFraction (BaselineIO's term)
	scanOff int32   // window [scanOff, scanEnd) into scanTID/scanSec
	scanEnd int32
}

// cqiIndex is an immutable snapshot of the knowledge base, rebuilt lazily
// after any mutation.
type cqiIndex struct {
	n   int
	pos map[int]int // ID → slot (always present; cold paths + sparse fallback)
	// posByID is the dense ID → slot table (-1 = unknown); nil when the ID
	// space is sparse or negative and the map must be used instead.
	posByID []int32

	hot   []tmplHot
	omega []float64 // n×n slab: omega[i*n+j] = ω when j runs with primary i

	scanTID []int32
	scanSec []float64

	maskW int      // bitset words per slot
	masks []uint64 // n×maskW slab; bit t set ⇔ template truly scans table t

	tables  []string
	tableID map[string]int

	tmpl []resolvedTemplate // cold-path view (CQIForStats, OperatorModel)
}

// index returns the current index, building it on first use after a
// mutation. Reads are lock-free; concurrent builders serialize on the
// knowledge base's mutex. Mutating the knowledge base concurrently with
// reads is not supported (and never was).
func (k *Knowledge) index() *cqiIndex {
	if idx := k.cqi.Load(); idx != nil {
		return idx
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if idx := k.cqi.Load(); idx != nil {
		return idx
	}
	idx := k.buildIndex()
	k.cqi.Store(idx)
	return idx
}

// invalidate drops the index after a mutation.
func (k *Knowledge) invalidate() { k.cqi.Store(nil) }

// densePosLimit bounds how much larger than the template count the dense
// ID → slot array may grow before falling back to the map (avoids a huge
// slab for a knowledge base with a handful of far-flung IDs).
const densePosLimit = 1024

func (k *Knowledge) buildIndex() *cqiIndex {
	ids := k.IDs()
	n := len(ids)
	idx := &cqiIndex{
		n:       n,
		pos:     make(map[int]int, n),
		tmpl:    make([]resolvedTemplate, n),
		tableID: make(map[string]int),
	}

	maxID, dense := -1, n > 0
	for _, id := range ids {
		if id < 0 {
			dense = false
		}
		if id > maxID {
			maxID = id
		}
	}
	if dense && maxID < 4*n+densePosLimit {
		idx.posByID = make([]int32, maxID+1)
		for i := range idx.posByID {
			idx.posByID[i] = -1
		}
	}

	// Resolve templates, intern tables in first-seen canonical order
	// (slot order, then each slot's table-sorted scans).
	for i, id := range ids {
		ts := k.templates[id]
		rt := resolvedTemplate{stats: ts, scans: make([]resolvedScan, 0, len(ts.Scans))}
		for f := range ts.Scans {
			rt.scans = append(rt.scans, resolvedScan{table: f, seconds: k.scanSeconds[f]})
		}
		sort.Slice(rt.scans, func(a, b int) bool { return rt.scans[a].table < rt.scans[b].table })
		idx.tmpl[i] = rt
		idx.pos[id] = i
		if idx.posByID != nil {
			idx.posByID[id] = int32(i)
		}
		for _, sc := range rt.scans {
			if _, ok := idx.tableID[sc.table]; !ok {
				idx.tableID[sc.table] = len(idx.tables)
				idx.tables = append(idx.tables, sc.table)
			}
		}
	}

	// Scan slabs and membership bitsets. A template's scan *list* carries
	// every key of its Scans map (matching the historical behavior of
	// iterating the map), while its mask encodes only the keys mapped to
	// true — the two differ when a caller stored explicit false entries,
	// and ω/τ membership tests always meant "maps to true".
	idx.maskW = (len(idx.tables) + 63) / 64
	if idx.maskW == 0 {
		idx.maskW = 1
	}
	idx.masks = make([]uint64, n*idx.maskW)
	idx.hot = make([]tmplHot, n)
	for i := range idx.tmpl {
		ts := &idx.tmpl[i].stats
		off := int32(len(idx.scanTID))
		for _, sc := range idx.tmpl[i].scans {
			tid := idx.tableID[sc.table]
			idx.scanTID = append(idx.scanTID, int32(tid))
			idx.scanSec = append(idx.scanSec, sc.seconds)
			if ts.Scans[sc.table] {
				idx.masks[i*idx.maskW+tid>>6] |= 1 << (uint(tid) & 63)
			}
		}
		idx.hot[i] = tmplHot{
			ioSecs:  ts.IsolatedLatency * ts.IOFraction,
			iso:     ts.IsolatedLatency,
			ioFrac:  ts.IOFraction,
			scanOff: off,
			scanEnd: int32(len(idx.scanTID)),
		}
	}

	// Pairwise ω slab (Eq. 2): shared-scan seconds between every primary i
	// and concurrent j, in j's canonical scan order.
	idx.omega = make([]float64, n*n)
	for i := 0; i < n; i++ {
		row := idx.omega[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			h := &idx.hot[j]
			var w float64
			for s := h.scanOff; s < h.scanEnd; s++ {
				if idx.scanBit(i, int(idx.scanTID[s])) {
					w += idx.scanSec[s]
				}
			}
			row[j] = w
		}
	}
	return idx
}

// scanBit reports whether the template in the given slot truly scans the
// interned table tid.
//
//contender:hotpath
func (idx *cqiIndex) scanBit(slot, tid int) bool {
	return idx.masks[slot*idx.maskW+tid>>6]&(1<<(uint(tid)&63)) != 0
}

// posOf resolves a template ID to its slot, or -1 when unknown.
//
//contender:hotpath
func (idx *cqiIndex) posOf(id int) int {
	if idx.posByID != nil {
		if uint(id) < uint(len(idx.posByID)) {
			return int(idx.posByID[id])
		}
		return -1
	}
	if p, ok := idx.pos[id]; ok {
		return p
	}
	return -1
}

// mustPos resolves a template ID to its index slot, panicking like
// MustTemplate on unknown IDs (a programming error in experiment wiring).
// The prediction entry points never reach the panic: Predictor.price
// checks every ID with posOf first and returns ErrUnknownTemplate.
//
//contender:hotpath
func (idx *cqiIndex) mustPos(id int) int {
	p := idx.posOf(id)
	if p < 0 {
		panicUnknownTemplate(id)
	}
	return p
}

// tauSlot computes Eq. 3 for the concurrent template in slot ci against
// the primary in slot pi: scan savings on tables the primary does not
// read, shared by h_f > 1 concurrent queries (each sharer saves
// (1 − 1/h_f)·s_f).
//
//contender:hotpath
func (idx *cqiIndex) tauSlot(pi, ci int, concurrent []int) float64 {
	h := &idx.hot[ci]
	var tau float64
	for s := h.scanOff; s < h.scanEnd; s++ {
		tid := int(idx.scanTID[s])
		if idx.scanBit(pi, tid) {
			continue
		}
		hf := 0
		for _, id := range concurrent {
			if idx.scanBit(idx.mustPos(id), tid) {
				hf++
			}
		}
		if hf > 1 {
			tau += (1 - 1/float64(hf)) * idx.scanSec[s]
		}
	}
	return tau
}

// tau computes Eq. 3 for concurrent query c against an explicit primary
// scan set — the cold-path variant for ad-hoc primaries whose scans are
// not in the index (CQIForStats, OperatorModel).
func (idx *cqiIndex) tau(primaryScans map[string]bool, c *resolvedTemplate, concurrent []int) float64 {
	var tau float64
	for _, sc := range c.scans {
		if primaryScans[sc.table] {
			continue
		}
		tid := idx.tableID[sc.table]
		hf := 0
		for _, id := range concurrent {
			if idx.scanBit(idx.mustPos(id), tid) {
				hf++
			}
		}
		if hf > 1 {
			tau += (1 - 1/float64(hf)) * sc.seconds
		}
	}
	return tau
}
