package core

import (
	"fmt"
	"sort"

	"contender/internal/stats"
)

// This file implements Sections 5.2–5.3: Query Sensitivity models for known
// templates (fit by regression on sampled mixes) and for previously unseen
// templates (estimated from the reference models without any concurrent
// sampling).

// QSModel is the per-template linear model c = µ·r + b (Eq. 7) mapping a
// mix's CQI to the template's continuum point. µ captures how quickly the
// template responds to resource scarcity; b is its minimum slowdown under
// concurrency (possibly negative for templates that benefit from sharing).
type QSModel struct {
	Mu float64 // slope µ_t
	B  float64 // y-intercept b_t
}

// Point evaluates the model at CQI r.
func (m QSModel) Point(r float64) float64 { return m.Mu*r + m.B }

// FitQS fits a QS model from paired (CQI, continuum point) training
// samples.
func FitQS(cqis, points []float64) (QSModel, error) {
	lin, err := stats.FitLinear(cqis, points)
	if err != nil {
		return QSModel{}, fmt.Errorf("core: fitting QS model: %w", err)
	}
	return QSModel{Mu: lin.Slope, B: lin.Intercept}, nil
}

// ReferenceModels is the set of QS models Contender has learned for known
// templates at one MPL, together with the isolated latencies it needs to
// transfer them to new templates. It never changes once built.
type ReferenceModels struct {
	mpl    int
	models map[int]QSModel
	know   *Knowledge
}

// NewReferenceModels builds the reference set of the given MPL from fitted
// QS models keyed by template ID, bound to a knowledge base. It keeps a
// copy of models.
func NewReferenceModels(know *Knowledge, mpl int, models map[int]QSModel) *ReferenceModels {
	r := &ReferenceModels{mpl: mpl, models: make(map[int]QSModel, len(models)), know: know}
	for id, m := range models {
		r.models[id] = m
	}
	return r
}

// MPL returns the multiprogramming level the models were fitted at.
func (r *ReferenceModels) MPL() int { return r.mpl }

// Model returns the QS model of template id.
func (r *ReferenceModels) Model(id int) (QSModel, bool) {
	m, ok := r.models[id]
	return m, ok
}

// IDs returns the template IDs with reference models, ascending.
func (r *ReferenceModels) IDs() []int {
	ids := make([]int, 0, len(r.models))
	for id := range r.models {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Len returns the number of reference models.
func (r *ReferenceModels) Len() int { return len(r.models) }

// Coefficients returns the (µ, b) pairs of all reference models in ID
// order — the data behind Figure 4's coefficient-relationship study.
func (r *ReferenceModels) Coefficients() (mus, bs []float64) {
	for _, id := range r.IDs() {
		m := r.models[id]
		mus = append(mus, m.Mu)
		bs = append(bs, m.B)
	}
	return mus, bs
}

// EstimateForNew predicts a full QS model for a never-sampled template from
// its isolated latency alone (the paper's Unknown-QS approach, Section
// 5.3): a first regression over the reference set estimates µ from l_min
// (Table 3 found isolated latency the best-correlated feature, inversely
// related to slope), and a second regression estimates b from µ using the
// strong linear relationship between the coefficients (Figure 4).
func (r *ReferenceModels) EstimateForNew(isolatedLatency float64) (QSModel, error) {
	if len(r.models) < 2 {
		return QSModel{}, fmt.Errorf("core: need at least 2 reference models, have %d", len(r.models))
	}
	mus, bs := r.Coefficients()
	lmins := make([]float64, 0, len(mus))
	for _, id := range r.IDs() {
		iso, ok := r.know.IsolatedLatency(id)
		if !ok {
			return QSModel{}, fmt.Errorf("core: %w: reference template %d", ErrUnknownTemplate, id)
		}
		lmins = append(lmins, iso)
	}

	muFit, err := stats.FitLinear(lmins, mus)
	if err != nil {
		return QSModel{}, fmt.Errorf("core: µ regression: %w", err)
	}
	mu := muFit.Predict(isolatedLatency)

	bFit, err := stats.FitLinear(mus, bs)
	if err != nil {
		return QSModel{}, fmt.Errorf("core: b regression: %w", err)
	}
	return QSModel{Mu: mu, B: bFit.Predict(mu)}, nil
}

// EstimateInterceptFromMu predicts only the y-intercept from a known slope
// (the paper's Unknown-Y comparison point, where µ is taken from a model
// fitted on the new template itself and only b is transferred).
func (r *ReferenceModels) EstimateInterceptFromMu(mu float64) (QSModel, error) {
	if len(r.models) < 2 {
		return QSModel{}, fmt.Errorf("core: need at least 2 reference models, have %d", len(r.models))
	}
	mus, bs := r.Coefficients()
	bFit, err := stats.FitLinear(mus, bs)
	if err != nil {
		return QSModel{}, fmt.Errorf("core: b regression: %w", err)
	}
	return QSModel{Mu: mu, B: bFit.Predict(mu)}, nil
}

// CoefficientRelation fits the Figure 4 regression b = f(µ) over the
// reference set and returns the fit plus its R².
func (r *ReferenceModels) CoefficientRelation() (stats.Linear, float64, error) {
	mus, bs := r.Coefficients()
	fit, err := stats.FitLinear(mus, bs)
	if err != nil {
		return stats.Linear{}, 0, err
	}
	return fit, stats.LinearR2(mus, bs), nil
}
