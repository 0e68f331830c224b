package core

import (
	"fmt"
	"math/rand"
	"sort"

	"contender/internal/obs"
)

// This file assembles the full prediction pipeline of Figure 5: training
// reference QS models from steady-state observations, then producing
// latency predictions for known templates (CQI → QS → continuum → seconds)
// and for ad-hoc templates (estimated QS + predicted spoiler).

// Predictor is a trained Contender instance for a set of MPLs. Train and
// PredictorFromSnapshot build it whole, serving index included, and
// nothing changes it afterwards: WithHooks returns a copy.
type Predictor struct {
	know *Knowledge
	refs map[int]*ReferenceModels
	// serv is the flat (template × MPL) serving index (serveindex.go).
	serv *servIndex

	// observer, when on, receives a serve.* span for every
	// prediction. The check happens before any clock read, so an
	// uninstrumented predictor keeps its allocation-free hot path.
	observer obs.Sink

	// quality, when non-nil, aggregates Feedback samples into
	// per-template accuracy statistics and drift states. Only Feedback
	// consults it — the PredictKnown/PredictBatch hot path never does.
	quality *obs.Quality
}

// newPredictor builds the reference models (MPL → template ID → QS
// model) against their knowledge base, then the serving index.
func newPredictor(know *Knowledge, models map[int]map[int]QSModel) *Predictor {
	p := &Predictor{know: know, refs: make(map[int]*ReferenceModels, len(models))}
	for mpl, ms := range models {
		p.refs[mpl] = NewReferenceModels(know, mpl, ms)
	}
	p.serv = p.buildServing()
	return p
}

// WithHooks returns a copy of the predictor that reports serve.* spans
// to o and folds Feedback into q; an empty Sink or a nil q removes
// either. The models and
// indexes are shared, and the receiver is left as it was, so a published
// predictor keeps serving with its own hooks.
func (p *Predictor) WithHooks(o obs.Sink, q *obs.Quality) *Predictor {
	cp := *p
	cp.observer, cp.quality = o, q
	return &cp
}

// Knowledge returns the knowledge base the predictor was trained on.
func (p *Predictor) Knowledge() *Knowledge { return p.know }

// Observer returns the installed serving observer (empty when none).
func (p *Predictor) Observer() obs.Sink { return p.observer }

// TrainOptions tunes reference-model training.
type TrainOptions struct {
	// DropOutliers discards observations whose latency exceeds 105% of the
	// spoiler latency (Section 6.1). Enabled in the paper's evaluation.
	DropOutliers bool
}

// Train builds reference QS models from steady-state observations of known
// templates. Observations are grouped by (primary, MPL); each group needs
// at least two samples to fit a line. Templates must already be in the
// knowledge base with isolated and spoiler latencies. Groups are fitted
// in the order of their first observation, so a failure names the first
// failing group in input order. Train reads observations without keeping
// or changing them. The predictor comes back with its serving index
// built.
func Train(know *Knowledge, observations []Observation, opts TrainOptions) (*Predictor, error) {
	// One index groups the observations without copying them: each
	// group's first and last observation, and next[i] the observation
	// after i in i's group (-1 at its end).
	type group struct {
		id, mpl     int
		first, last int32
	}
	var groups []group
	at := make(map[[2]int]int32)
	next := make([]int32, len(observations))
	for i := range observations {
		o := &observations[i]
		k := [2]int{o.Primary, o.MPL()}
		g, ok := at[k]
		if !ok {
			g = int32(len(groups))
			at[k] = g
			groups = append(groups, group{id: k[0], mpl: k[1], first: int32(i)})
		} else {
			next[groups[g].last] = int32(i)
		}
		next[i] = -1
		groups[g].last = int32(i)
	}
	// One (CQI, continuum point) scratch pair, reused by every group.
	var rs, cs []float64
	models := make(map[int]map[int]QSModel)
	for _, g := range groups {
		cont, ok := know.ContinuumFor(g.id, g.mpl)
		if !ok {
			return nil, fmt.Errorf("core: no spoiler latency for template %d at MPL %d", g.id, g.mpl)
		}
		rs, cs = rs[:0], cs[:0]
		for i := g.first; i >= 0; i = next[i] {
			o := &observations[i]
			if opts.DropOutliers && cont.IsOutlier(o.Latency) {
				continue
			}
			r, err := know.CQI(o.Primary, o.Concurrent)
			if err != nil {
				return nil, fmt.Errorf("core: template %d MPL %d: %w", g.id, g.mpl, err)
			}
			rs = append(rs, r)
			cs = append(cs, cont.Point(o.Latency))
		}
		if len(rs) < 2 {
			continue
		}
		m, err := FitQS(rs, cs)
		if err != nil {
			return nil, fmt.Errorf("core: template %d MPL %d: %w", g.id, g.mpl, err)
		}
		if models[g.mpl] == nil {
			models[g.mpl] = make(map[int]QSModel)
		}
		models[g.mpl][g.id] = m
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no reference models could be trained from %d observations", len(observations))
	}
	return newPredictor(know, models), nil
}

// References returns the reference models at the given MPL.
func (p *Predictor) References(mpl int) (*ReferenceModels, bool) {
	r, ok := p.refs[mpl]
	return r, ok
}

// MPLs returns the multiprogramming levels with trained reference models.
func (p *Predictor) MPLs() []int {
	var out []int
	for m := range p.refs {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// PredictKnown estimates the latency of a known (sampled) template in a
// given mix: evaluate the mix's CQI, apply the template's QS model, and
// scale the continuum point by the measured [l_min, l_max] range.
func (p *Predictor) PredictKnown(primary int, concurrent []int) (float64, error) {
	if !p.observer.On() {
		return p.predictKnown(primary, concurrent)
	}
	start := obs.Mono()
	v, err := p.predictKnown(primary, concurrent)
	p.observer.Event(obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictKnown,
		Template: primary,
		MPL:      len(concurrent) + 1,
		Value:    v,
		Dur:      obs.Mono() - start,
		Err:      obs.ErrLabel(err),
	})
	return v, err
}

func (p *Predictor) predictKnown(primary int, concurrent []int) (float64, error) {
	cell, r, err := p.price(primary, concurrent, nil)
	if err != nil {
		return 0, err
	}
	return cell.latency(r), nil
}

// Pricing a known-template prediction is two steps. resolve is the
// per-primary step: the primary's slot in the knowledge index and its
// CQI row. priceMix is the per-mix step and the one body behind every
// known-template prediction (PredictKnown, PredictBatch, PredictExplain,
// Feedback, Shard.Observe): it resolves the (primary, MPL) cell in the
// serving index and runs the CQI kernel on the primary's row; the kernel
// rejects unknown concurrent IDs with ErrUnknownTemplate in the walk
// that summarizes the mix's shared tables (shareOf). PredictBatch
// resolves its primary once and prices each mix; the others run both
// steps through price.

// resolvedPrimary is a primary after the per-primary step: its ID, its
// slot in the knowledge index (-1 when unknown, which the per-mix step
// reports) and, when known, its row.
type resolvedPrimary struct {
	id   int
	slot int
	row  primaryRow
}

// resolve is the per-primary step of pricing.
func (p *Predictor) resolve(primary int) resolvedPrimary {
	idx := p.know.idx
	rp := resolvedPrimary{id: primary, slot: idx.posOf(primary)}
	if rp.slot >= 0 {
		rp.row = idx.row(rp.slot)
	}
	return rp
}

// priceMix is the per-mix step of pricing. It returns the cell and the
// mix's CQI; terms is cqiSlot's optional per-neighbor sink (nil for
// plain predictions).
func (p *Predictor) priceMix(rp *resolvedPrimary, concurrent []int, terms []float64) (*servCell, float64, error) {
	cell, err := p.cellFor(rp, len(concurrent))
	if err != nil {
		return nil, 0, err
	}
	r, err := p.know.idx.cqiSlot(&rp.row, concurrent, terms)
	if err != nil {
		return nil, 0, err
	}
	return cell, r, nil
}

// price runs both pricing steps for one mix.
func (p *Predictor) price(primary int, concurrent []int, terms []float64) (*servCell, float64, error) {
	rp := p.resolve(primary)
	return p.priceMix(&rp, concurrent, terms)
}

// NewTemplateOptions selects how the pipeline fills in the two unknowns of
// an ad-hoc template: its QS model and its spoiler latency.
type NewTemplateOptions struct {
	// QS, if non-nil, overrides QS estimation (the Unknown-Y experiment
	// passes a µ obtained from the template's own fitted model here).
	QS *QSModel
	// Spoiler, if non-nil, predicts l_max instead of reading measured
	// spoiler latencies from the template stats (constant-time sampling).
	Spoiler SpoilerPredictor
}

// PredictNew estimates the latency of a template that was never sampled
// under concurrency. The template's isolated statistics arrive in t; its QS
// model is estimated from the reference models (Unknown-QS) unless
// opts.QS is set, and its spoiler latency is measured (t.SpoilerLatency)
// unless opts.Spoiler is set.
func (p *Predictor) PredictNew(t TemplateStats, concurrent []int, opts NewTemplateOptions) (float64, error) {
	if !p.observer.On() {
		return p.predictNew(t, concurrent, opts)
	}
	start := obs.Mono()
	v, err := p.predictNew(t, concurrent, opts)
	p.observer.Event(obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictNew,
		Template: t.ID,
		MPL:      len(concurrent) + 1,
		Value:    v,
		Dur:      obs.Mono() - start,
		Err:      obs.ErrLabel(err),
	})
	return v, err
}

func (p *Predictor) predictNew(t TemplateStats, concurrent []int, opts NewTemplateOptions) (float64, error) {
	if len(concurrent) == 0 {
		return 0, fmt.Errorf("core: %w: predicting template %d at MPL 1 (use the isolated latency)", ErrEmptyMix, t.ID)
	}
	mpl := len(concurrent) + 1
	refs, ok := p.refs[mpl]
	if !ok {
		return 0, fmt.Errorf("core: %w: no reference models at MPL %d", ErrUntrainedMPL, mpl)
	}

	var qs QSModel
	if opts.QS != nil {
		qs = *opts.QS
	} else {
		var err error
		qs, err = refs.EstimateForNew(t.IsolatedLatency)
		if err != nil {
			return 0, err
		}
	}

	var lmax float64
	if opts.Spoiler != nil {
		var err error
		lmax, err = PredictSpoilerLatency(opts.Spoiler, t, mpl)
		if err != nil {
			return 0, err
		}
	} else {
		var ok bool
		lmax, ok = t.SpoilerLatency[mpl]
		if !ok {
			return 0, fmt.Errorf("core: template %d has no spoiler latency at MPL %d and no spoiler predictor was given", t.ID, mpl)
		}
	}

	cont := Continuum{Min: t.IsolatedLatency, Max: lmax}
	if !cont.Valid() {
		return 0, fmt.Errorf("core: degenerate continuum [%g, %g] for template %d", cont.Min, cont.Max, t.ID)
	}
	r, err := p.know.CQIForStats(t, concurrent)
	if err != nil {
		return 0, err
	}
	return cont.Latency(qs.Point(r)), nil
}

// PerturbStats returns a copy of t with isolated latency, I/O fraction, and
// working set independently perturbed by a uniform relative error in
// [-frac, +frac]. The Figure 10 "Isolated Prediction" baseline feeds the
// pipeline statistics perturbed by ±25%, matching the error rate of the
// isolated-latency predictors of Akdere et al. — i.e. zero sample
// executions of the new template.
func PerturbStats(t TemplateStats, frac float64, rng *rand.Rand) TemplateStats {
	perturb := func(v float64) float64 {
		return v * (1 + frac*(2*rng.Float64()-1))
	}
	out := t
	out.IsolatedLatency = perturb(t.IsolatedLatency)
	out.IOFraction = perturb(t.IOFraction)
	if out.IOFraction > 1 {
		out.IOFraction = 1
	}
	out.WorkingSetBytes = perturb(t.WorkingSetBytes)
	return out
}
