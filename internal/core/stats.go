// Package core implements the Contender framework itself: the Concurrent
// Query Intensity (CQI) metric, the performance continuum, Query
// Sensitivity (QS) models for known and unseen templates, spoiler-latency
// models, and the end-to-end prediction pipeline of Figure 5.
//
// The package is substrate-agnostic: it consumes only the observables the
// paper consumes — isolated latency, procfs-style I/O fraction, working-set
// size, fact-table scan sets from query plans, per-table scan times, spoiler
// latencies, and steady-state mix measurements. Whether those numbers come
// from the bundled simulator or a real DBMS is invisible to it.
package core

import "sort"

// TemplateStats holds the isolated-execution observables of one template —
// everything Contender is allowed to know about a query without running it
// concurrently.
type TemplateStats struct {
	ID int
	// IsolatedLatency is l_min: execution time alone on a cold cache.
	IsolatedLatency float64
	// IOFraction is p_t: the fraction of isolated execution time spent on
	// I/O (from procfs-style accounting).
	IOFraction float64
	// WorkingSetBytes is the size of the largest intermediate result.
	WorkingSetBytes float64
	// SpoilerLatency maps MPL → measured l_max. May be sparse or empty for
	// ad-hoc templates (then spoiler prediction kicks in).
	SpoilerLatency map[int]float64
	// Scans is the set of fact tables the template's plan scans
	// sequentially; CQI's shared-scan terms are computed over it.
	Scans map[string]bool
	// PlanSteps and RecordsAccessed are the query-complexity features
	// examined in Table 3.
	PlanSteps       int
	RecordsAccessed float64
}

// SpoilerSlowdown returns l_max(mpl)/l_min, the Table 3 "spoiler slowdown"
// feature, or 0 when the spoiler latency is unknown.
func (t TemplateStats) SpoilerSlowdown(mpl int) float64 {
	if t.IsolatedLatency <= 0 {
		return 0
	}
	l, ok := t.SpoilerLatency[mpl]
	if !ok {
		return 0
	}
	return l / t.IsolatedLatency
}

// Knowledge is Contender's training-time view of the workload: per-template
// isolated statistics plus the measured per-table scan times s_f. It is
// built once, by NewKnowledge, and never changes afterwards, so every read
// (CQI, prediction) is safe to run concurrently.
type Knowledge struct {
	templates map[int]TemplateStats
	// scanSeconds[f] is s_f: time to sequentially scan fact table f in
	// isolation, measured by running a scan-only query.
	scanSeconds map[string]float64

	// idx is the flat hot-path index (cqiindex.go), built by NewKnowledge.
	idx *cqiIndex
}

// NewKnowledge builds a knowledge base from the measured scan times and
// the templates' isolated statistics, and builds its CQI index. It keeps
// deep copies of its inputs, so the caller may reuse or mutate them
// afterwards. A later template with an already-seen ID replaces the
// earlier one.
func NewKnowledge(scans map[string]float64, templates []TemplateStats) *Knowledge {
	k := &Knowledge{
		templates:   make(map[int]TemplateStats, len(templates)),
		scanSeconds: make(map[string]float64, len(scans)),
	}
	for f, v := range scans {
		k.scanSeconds[f] = v
	}
	for _, ts := range templates {
		k.templates[ts.ID] = ts.clone()
	}
	k.idx = k.buildIndex()
	return k
}

// ScanTime returns s_f, or 0 if the table was never profiled.
func (k *Knowledge) ScanTime(table string) float64 { return k.scanSeconds[table] }

// ScanTimes returns a copy of every measured scan time s_f.
func (k *Knowledge) ScanTimes() map[string]float64 {
	out := make(map[string]float64, len(k.scanSeconds))
	for f, v := range k.scanSeconds {
		out[f] = v
	}
	return out
}

// Template returns a copy of the stats of template id: its maps are the
// caller's own. A caller that needs only the isolated latency should use
// IsolatedLatency, which copies nothing.
func (k *Knowledge) Template(id int) (TemplateStats, bool) {
	t, ok := k.templates[id]
	if !ok {
		return TemplateStats{}, false
	}
	return t.clone(), true
}

// Templates returns a copy of every template's stats in ascending ID
// order, as Template does.
func (k *Knowledge) Templates() []TemplateStats {
	out := make([]TemplateStats, 0, len(k.templates))
	for _, id := range k.IDs() {
		out = append(out, k.templates[id].clone())
	}
	return out
}

// IsolatedLatency returns l_min of template id.
func (k *Knowledge) IsolatedLatency(id int) (float64, bool) {
	t, ok := k.templates[id]
	return t.IsolatedLatency, ok
}

// clone returns t with its maps deep-copied.
func (t TemplateStats) clone() TemplateStats {
	cp := t
	cp.SpoilerLatency = make(map[int]float64, len(t.SpoilerLatency))
	for m, v := range t.SpoilerLatency {
		cp.SpoilerLatency[m] = v
	}
	cp.Scans = make(map[string]bool, len(t.Scans))
	for f, v := range t.Scans {
		cp.Scans[f] = v
	}
	return cp
}

// IDs returns the known template IDs in ascending order.
func (k *Knowledge) IDs() []int {
	ids := make([]int, 0, len(k.templates))
	for id := range k.templates {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Observation is one steady-state measurement: the primary's average
// latency in a specific concurrent mix.
type Observation struct {
	Primary    int
	Concurrent []int // the other MPL-1 members of the mix
	Latency    float64
}

// MPL returns the observation's multiprogramming level.
func (o Observation) MPL() int { return len(o.Concurrent) + 1 }
