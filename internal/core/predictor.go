package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"contender/internal/obs"
)

// This file assembles the full prediction pipeline of Figure 5: training
// reference QS models from steady-state observations, then producing
// latency predictions for known templates (CQI → QS → continuum → seconds)
// and for ad-hoc templates (estimated QS + predicted spoiler).

// Predictor is a trained Contender instance for a set of MPLs.
type Predictor struct {
	Know *Knowledge
	refs map[int]*ReferenceModels

	// observer, when non-nil, receives a serve.* span for every
	// prediction. The nil check happens before any clock read, so an
	// uninstrumented predictor keeps its allocation-free hot path.
	observer obs.Observer

	// quality, when non-nil, aggregates Feedback samples into
	// per-template accuracy statistics and drift states. Only Feedback
	// consults it — the PredictKnown/PredictBatch hot path never does.
	quality *obs.Quality

	// serv caches the flat (template × MPL) serving index, keyed by the
	// knowledge snapshot it was built from so knowledge mutations
	// invalidate it transitively (serveindex.go). The zero value is
	// ready: snapshot-loaded predictors build it on first use or Prime.
	serv atomic.Pointer[servIndex]
	smu  sync.Mutex
}

// SetObserver installs (or, with nil, removes) the serving observer.
func (p *Predictor) SetObserver(o obs.Observer) { p.observer = o }

// Observer returns the installed serving observer (nil when none).
func (p *Predictor) Observer() obs.Observer { return p.observer }

// TrainOptions tunes reference-model training.
type TrainOptions struct {
	// DropOutliers discards observations whose latency exceeds 105% of the
	// spoiler latency (Section 6.1). Enabled in the paper's evaluation.
	DropOutliers bool
}

// Train builds reference QS models from steady-state observations of known
// templates. Observations are grouped by (primary, MPL); each group needs
// at least two samples to fit a line. Templates must already be registered
// in the knowledge base with isolated and spoiler latencies.
func Train(know *Knowledge, observations []Observation, opts TrainOptions) (*Predictor, error) {
	type key struct{ id, mpl int }
	groups := make(map[key][]Observation)
	for _, o := range observations {
		groups[key{o.Primary, o.MPL()}] = append(groups[key{o.Primary, o.MPL()}], o)
	}
	p := &Predictor{Know: know, refs: make(map[int]*ReferenceModels)}
	for k, obs := range groups {
		cont, ok := know.ContinuumFor(k.id, k.mpl)
		if !ok {
			return nil, fmt.Errorf("core: no spoiler latency for template %d at MPL %d", k.id, k.mpl)
		}
		var rs, cs []float64
		for _, o := range obs {
			if opts.DropOutliers && cont.IsOutlier(o.Latency) {
				continue
			}
			rs = append(rs, know.CQI(o.Primary, o.Concurrent))
			cs = append(cs, cont.Point(o.Latency))
		}
		if len(rs) < 2 {
			continue
		}
		m, err := FitQS(rs, cs)
		if err != nil {
			return nil, fmt.Errorf("core: template %d MPL %d: %w", k.id, k.mpl, err)
		}
		if p.refs[k.mpl] == nil {
			p.refs[k.mpl] = NewReferenceModels(know, k.mpl)
		}
		p.refs[k.mpl].Add(k.id, m)
	}
	if len(p.refs) == 0 {
		return nil, fmt.Errorf("core: no reference models could be trained from %d observations", len(observations))
	}
	return p, nil
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
	sortInts(out)
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PredictKnown estimates the latency of a known (sampled) template in a
// given mix: evaluate the mix's CQI, apply the template's QS model, and
// scale the continuum point by the measured [l_min, l_max] range.
//
//contender:hotpath
func (p *Predictor) PredictKnown(primary int, concurrent []int) (float64, error) {
	if p.observer == nil {
		return p.predictKnown(primary, concurrent)
	}
	start := time.Now() //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
	v, err := p.predictKnown(primary, concurrent)
	obs.Emit(p.observer, obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictKnown,
		Template: primary,
		MPL:      len(concurrent) + 1,
		Value:    v,
		Dur:      time.Since(start), //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
		Err:      obs.ErrLabel(err),
	})
	return v, err
}

//contender:hotpath
func (p *Predictor) predictKnown(primary int, concurrent []int) (float64, error) {
	cell, r, err := p.price(primary, concurrent, nil)
	if err != nil {
		return 0, err
	}
	return cell.latency(r), nil
}

// price is the one body behind every known-template prediction
// (PredictKnown, PredictBatch, PredictExplain, Feedback, Shard.Observe).
// It loads the knowledge and serving snapshots once, resolves the
// (primary, MPL) cell, rejects unknown concurrent IDs with
// ErrUnknownTemplate, and runs the CQI kernel on that same snapshot — so
// no swap or mutation can slip between validating a mix and pricing it.
// It returns the cell and the mix's CQI; terms is cqiSlot's optional
// per-neighbor sink (nil for plain predictions).
//
//contender:hotpath
func (p *Predictor) price(primary int, concurrent []int, terms []float64) (*servCell, float64, error) {
	idx := p.Know.index()
	s := p.serving(idx)
	cell, si, err := p.cellFor(s, idx, primary, len(concurrent))
	if err != nil {
		return nil, 0, err
	}
	for _, id := range concurrent {
		if idx.posOf(id) < 0 {
			return nil, 0, fmt.Errorf("core: %w: concurrent template %d", ErrUnknownTemplate, id)
		}
	}
	return cell, idx.cqiSlot(si, concurrent, terms), nil
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
	if p.observer == nil {
		return p.predictNew(t, concurrent, opts)
	}
	start := time.Now() //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
	v, err := p.predictNew(t, concurrent, opts)
	obs.Emit(p.observer, obs.Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServePredictNew,
		Template: t.ID,
		MPL:      len(concurrent) + 1,
		Value:    v,
		Dur:      time.Since(start), //contender:allow nodeterminism -- span duration feeds observability only, never a canonical artifact
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
	r := p.Know.CQIForStats(t, concurrent)
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
