package core

// This file implements the paper's first future-work direction (Section
// 8): "developing models for predicting query performance on an expanding
// database. As database writes accumulate, this would enable the predictor
// to continue to provide important information to database users."
//
// Contender's statistics-based design makes the extension analytic: with
// constant predicate selectivities, every row-driven cost grows linearly
// with the fact data, so scaling the knowledge base re-derives every input
// of the Figure-5 pipeline — scan times, isolated latencies, working sets
// — without a single new sample execution. The ordinary new-template path
// (estimated QS model + KNN-predicted spoiler) then produces predictions
// for the grown database.

// ScaleStats projects a template's isolated statistics onto a database
// grown by the given factor. With constant predicate selectivities, every
// row-driven cost — scan I/O, scan and join CPU, intermediate-result sizes
// — grows linearly with the fact data, so:
//
//   - the isolated latency scales by the factor (dimension-side fixed
//     costs are negligible for analytical templates);
//   - the I/O fraction is unchanged;
//   - the working set and records accessed scale with their inputs.
//
// Measured spoiler latencies are dropped — they were observed at the old
// scale — so downstream prediction must use a SpoilerPredictor, exactly as
// for an ad-hoc template.
func ScaleStats(t TemplateStats, factor float64) TemplateStats {
	if factor <= 0 {
		factor = 1
	}
	out := t
	out.IsolatedLatency = t.IsolatedLatency * factor
	out.WorkingSetBytes = t.WorkingSetBytes * factor
	out.RecordsAccessed = t.RecordsAccessed * factor
	out.SpoilerLatency = map[int]float64{}
	// The scan set and plan shape are unchanged by growth.
	out.Scans = make(map[string]bool, len(t.Scans))
	for f, v := range t.Scans {
		out.Scans[f] = v
	}
	return out
}

// ScaleKnowledge projects a whole knowledge base onto a grown database:
// every template's statistics are scaled and every fact-table scan time
// s_f grows linearly with the table. The result feeds CQI computation and
// QS-model transfer at the new scale.
func ScaleKnowledge(k *Knowledge, factor float64) *Knowledge {
	scans := make(map[string]float64, len(k.scanSeconds))
	for f, s := range k.scanSeconds {
		scans[f] = s * factor
	}
	templates := make([]TemplateStats, 0, len(k.templates))
	for _, id := range k.IDs() {
		templates = append(templates, ScaleStats(k.templates[id], factor))
	}
	return NewKnowledge(scans, templates)
}
