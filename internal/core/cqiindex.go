package core

import (
	"math/bits"
	"sort"
)

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
//   - scanTID: every template's fact scans concatenated into one slab of
//     interned table IDs, in canonical table order. Tables are interned
//     in sorted-name order, so each slot's window ascends by table ID.
//   - tableSec: s_f per interned table, read through scanTID or by a
//     table ID directly.
//   - masks: per-slot scan-set bitsets (maskW words per slot), so the
//     "does template t scan table f" membership tests of Eq. 2/3 are a
//     shift and an AND instead of a string-keyed map lookup.
//   - listFold: with at most 64 interned tables (maskW == 1), each
//     slot's scan *list* (explicit-false entries included) folded into
//     one word, beside its one masks word; a mix's sharer counts are
//     built from the masks words in one walk (shareOf).
//   - term0: the n×n slab of τ-free r_c terms, term0[i*n+j] =
//     intensitySlot(j, ω(i,j), 0), served whenever none of j's scans is
//     shared by two concurrents and unread by the primary.
//
// With it, CQI, PositiveIO, BaselineIO, and the prediction pipeline run
// allocation-free, touch memory sequentially, and sum floating-point
// terms in a deterministic order. The float arithmetic is kept
// bit-identical to the pre-flattening implementation (same association,
// same division), so every golden experiment artifact is unchanged.
//
// The CQI kernel reads the primary's side through a primaryRow: its ω
// row, its term0 row and its mask words. A known primary's row is a view
// into the slabs; an ad-hoc primary (CQIForStats, PredictNew, the
// operator model) gets a transient row, filled from its scan set by the
// same fillRow that fills every known row.

// tmplHot is the per-slot record the serving path reads: everything CQI
// needs about one concurrent template, packed into 32 bytes.
type tmplHot struct {
	ioSecs  float64 // IsolatedLatency · IOFraction, precomputed (Eq. 4 numerator head)
	iso     float64 // IsolatedLatency (the Eq. 4 divisor; ≤ 0 short-circuits to 0)
	ioFrac  float64 // IOFraction (BaselineIO's term)
	scanOff int32   // window [scanOff, scanEnd) into scanTID
	scanEnd int32
}

// cqiIndex is the knowledge base's immutable hot-path view, built once by
// NewKnowledge.
type cqiIndex struct {
	n   int
	pos map[int]int // ID → slot (always present; serving-index build + sparse fallback)
	// posByID is the dense ID → slot table (-1 = unknown); nil when the ID
	// space is sparse or negative and the map must be used instead.
	posByID []int32

	hot   []tmplHot
	omega []float64 // n×n slab: omega[i*n+j] = ω when j runs with primary i

	scanTID  []int32
	tableSec []float64 // s_f by interned table ID

	maskW int      // bitset words per slot
	masks []uint64 // n×maskW slab; bit t set ⇔ template truly scans table t

	// listFold is read only when maskW == 1: folding more than 64
	// tables into one word is not exact, so those indexes count sharers
	// per scan.
	listFold []uint64  // one word per slot: bit t set ⇔ t is in the scan list
	term0    []float64 // n×n slab: term0[i*n+j] = intensitySlot(j, omega[i*n+j], 0)

	tableID map[string]int // interned in sorted-name order
}

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
		tableID: make(map[string]int),
	}

	if n > 0 && ids[0] >= 0 && ids[n-1] < 4*n+densePosLimit { // ids ascend
		idx.posByID = make([]int32, ids[n-1]+1)
		for i := range idx.posByID {
			idx.posByID[i] = -1
		}
	}

	// Tables are interned in sorted-name order, so a slot's scan list,
	// sorted by name, ascends by table ID: walking the set bits of a
	// folded list word visits the scans in list order.
	var names []string
	for _, id := range ids {
		for f := range k.templates[id].Scans {
			if _, ok := idx.tableID[f]; !ok {
				idx.tableID[f] = 0
				names = append(names, f)
			}
		}
	}
	sort.Strings(names)
	idx.tableSec = make([]float64, len(names))
	for tid, f := range names {
		idx.tableID[f] = tid
		idx.tableSec[tid] = k.scanSeconds[f]
	}

	// Scan slabs: each slot's scan *list* carries every key of its Scans
	// map in table order (matching the historical behavior of iterating
	// the map). Its mask (fillRow) encodes only the keys mapped to true —
	// the two differ when a caller stored explicit false entries, and ω/τ
	// membership tests always meant "maps to true".
	idx.hot = make([]tmplHot, n)
	idx.listFold = make([]uint64, n)
	for i, id := range ids {
		ts := k.templates[id]
		idx.pos[id] = i
		if idx.posByID != nil {
			idx.posByID[id] = int32(i)
		}
		list := make([]string, 0, len(ts.Scans))
		for f := range ts.Scans {
			list = append(list, f)
		}
		sort.Strings(list)
		off := int32(len(idx.scanTID))
		for _, f := range list {
			tid := idx.tableID[f]
			idx.listFold[i] |= 1 << (uint(tid) & 63)
			idx.scanTID = append(idx.scanTID, int32(tid))
		}
		idx.hot[i] = tmplHot{
			ioSecs:  ts.IsolatedLatency * ts.IOFraction,
			iso:     ts.IsolatedLatency,
			ioFrac:  ts.IOFraction,
			scanOff: off,
			scanEnd: int32(len(idx.scanTID)),
		}
	}

	idx.maskW = (len(names) + 63) / 64
	if idx.maskW == 0 {
		idx.maskW = 1
	}
	idx.masks = make([]uint64, n*idx.maskW)
	idx.omega = make([]float64, n*n)
	idx.term0 = make([]float64, n*n)
	for i, id := range ids {
		row := idx.row(i)
		idx.fillRow(&row, k.templates[id].Scans)
	}
	return idx
}

// primaryRow is the primary's side of the CQI kernel: ω(primary, j)
// (Eq. 2) and the τ-free term intensitySlot(j, ω, 0) for every slot j,
// and the primary's scan mask (maskW words; bit t set ⇔ it truly scans
// table t).
type primaryRow struct {
	omega, term0 []float64
	mask         []uint64
}

// row returns the known primary in slot pi's row as views into the slabs.
func (idx *cqiIndex) row(pi int) primaryRow {
	n, w := idx.n, idx.maskW
	return primaryRow{idx.omega[pi*n : pi*n+n], idx.term0[pi*n : pi*n+n], idx.masks[pi*w : pi*w+w]}
}

// adhocRow returns a transient row for a primary that is not in the
// knowledge base, filled from its scan set. Tables no known template
// scans cannot enter ω or τ, so they are left out of its mask.
func (idx *cqiIndex) adhocRow(scans map[string]bool) primaryRow {
	buf := make([]float64, 2*idx.n)
	row := primaryRow{omega: buf[:idx.n], term0: buf[idx.n:], mask: make([]uint64, idx.maskW)}
	idx.fillRow(&row, scans)
	return row
}

// fillRow fills a zeroed row from the primary's scan set: the mask bits
// of the interned tables it maps to true, then ω against every slot j,
// summed in j's canonical scan order, and the τ-free term each ω yields.
func (idx *cqiIndex) fillRow(row *primaryRow, scans map[string]bool) {
	for f, truly := range scans {
		if tid, ok := idx.tableID[f]; ok && truly {
			row.mask[tid>>6] |= 1 << (uint(tid) & 63)
		}
	}
	for j := range row.omega {
		h := &idx.hot[j]
		var w float64
		for s := h.scanOff; s < h.scanEnd; s++ {
			if tid := idx.scanTID[s]; row.reads(int(tid)) {
				w += idx.tableSec[tid]
			}
		}
		row.omega[j] = w
		row.term0[j] = idx.intensitySlot(j, w, 0)
	}
}

// reads reports whether the primary truly scans the interned table tid.
func (row *primaryRow) reads(tid int) bool {
	return row.mask[tid>>6]&(1<<(uint(tid)&63)) != 0
}

// scanBit reports whether the template in the given slot truly scans the
// interned table tid.
func (idx *cqiIndex) scanBit(slot, tid int) bool {
	return idx.masks[slot*idx.maskW+tid>>6]&(1<<(uint(tid)&63)) != 0
}

// posOf resolves a template ID to its slot, or -1 when unknown.
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

// maxSharers is the longest mix mixShare's 3-bit sharer counters hold.
const maxSharers = 7

// mixShare summarizes which tables a mix shares. For each interned table
// t, h_f (Eq. 3's count of concurrents truly scanning t) is bit t of
// c0 + 2·c1 + 4·c2. cand holds the tables where τ can be non-zero:
// h_f > 1 and the primary does not read t, and slot[i] is concurrent
// i's slot. When exact is false (the index has more than 64 tables, or
// the mix is longer than maxSharers) the counters and slots are unset
// and τ is counted per scan over masks.
type mixShare struct {
	c0, c1, c2 uint64
	cand       uint64
	slot       [maxSharers]int32
	exact      bool
}

// shareGain[h] is Eq. 3's saving per sharer, 1 − 1/h, for h sharers. It
// is filled with float64 arithmetic, as tauSlot computes it: a constant
// expression such as 1 - 1/3.0 is evaluated exactly and rounded once,
// which can land an ulp away.
var shareGain = func() (g [maxSharers + 1]float64) {
	for h := 1; h <= maxSharers; h++ {
		g[h] = 1 - 1/float64(h)
	}
	return g
}()

// shareOf resolves every concurrent ID and, in the same walk, fills sh
// with the mix's slots and sharer counts against the primary's row. It
// returns the position of the first unknown ID, or -1 when all resolve.
func (idx *cqiIndex) shareOf(sh *mixShare, row *primaryRow, concurrent []int) int {
	exact := idx.maskW == 1 && len(concurrent) <= maxSharers
	var c0, c1, c2 uint64
	for i, id := range concurrent {
		ci := idx.posOf(id)
		if ci < 0 {
			return i
		}
		if exact { // record the slot; add masks[ci] to the bit-sliced counters
			sh.slot[i] = int32(ci)
			m := idx.masks[ci]
			c := c0 & m
			c0 ^= m
			c2 ^= c1 & c
			c1 ^= c
		}
	}
	sh.c0, sh.c1, sh.c2, sh.cand, sh.exact = c0, c1, c2, 0, exact
	if exact {
		sh.cand = (c1 | c2) &^ row.mask[0]
	}
	return -1
}

// tauShared is tauSlot for an exact mixShare: it walks the set bits of
// the slot's folded scan list within sh.cand, in ascending table ID and
// so in scan-list order, and reads h_f from the counters. The scans it
// skips either are read by the primary or have h_f ≤ 1, and tauSlot
// adds nothing for those, so the sum is bit-identical.
func (idx *cqiIndex) tauShared(ci int, sh *mixShare) float64 {
	var tau float64
	for m := idx.listFold[ci] & sh.cand; m != 0; m &= m - 1 {
		t := uint(bits.TrailingZeros64(m))
		hf := sh.c0>>t&1 | (sh.c1>>t&1)<<1 | (sh.c2>>t&1)<<2
		tau += shareGain[hf] * idx.tableSec[t]
	}
	return tau
}

// tauSlot computes Eq. 3 for the concurrent template in slot ci against
// the primary's row: scan savings on tables the primary does not
// read, shared by h_f > 1 concurrent queries (each sharer saves
// (1 − 1/h_f)·s_f).
func (idx *cqiIndex) tauSlot(row *primaryRow, ci int, concurrent []int) float64 {
	h := &idx.hot[ci]
	var tau float64
	for s := h.scanOff; s < h.scanEnd; s++ {
		tid := int(idx.scanTID[s])
		if row.reads(tid) {
			continue
		}
		hf := 0
		for _, id := range concurrent {
			if idx.scanBit(idx.posOf(id), tid) {
				hf++
			}
		}
		if hf > 1 {
			tau += (1 - 1/float64(hf)) * idx.tableSec[tid]
		}
	}
	return tau
}
