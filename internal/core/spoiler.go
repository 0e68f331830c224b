package core

import (
	"fmt"

	"contender/internal/stats"
)

// This file implements Sections 5.4–5.5: modeling spoiler latency as a
// linear function of the MPL, and predicting spoiler latencies for new
// templates from isolated statistics alone — the step that reduces
// Contender's sampling cost from linear to constant.

// SpoilerGrowth is the per-template linear model l_max = µ·n + b (Eq. 8)
// over the MPL n.
type SpoilerGrowth struct {
	Mu float64
	B  float64
}

// Latency evaluates the model at MPL n.
func (g SpoilerGrowth) Latency(mpl int) float64 { return g.Mu*float64(mpl) + g.B }

// FitSpoilerGrowth fits Eq. 8 from (MPL, spoiler latency) samples.
func FitSpoilerGrowth(mpls []int, latencies []float64) (SpoilerGrowth, error) {
	xs := make([]float64, len(mpls))
	for i, m := range mpls {
		xs[i] = float64(m)
	}
	fit, err := stats.FitLinear(xs, latencies)
	if err != nil {
		return SpoilerGrowth{}, fmt.Errorf("core: fitting spoiler growth: %w", err)
	}
	return SpoilerGrowth{Mu: fit.Slope, B: fit.Intercept}, nil
}

// GrowthFromStats fits the template's spoiler-growth model from the
// spoiler latencies recorded in its stats, restricted to the given MPLs
// (pass nil for all). MPL 1 uses the isolated latency as l_max(1).
func GrowthFromStats(t TemplateStats, mpls []int) (SpoilerGrowth, error) {
	var xs []int
	var ys []float64
	use := func(m int) bool {
		if mpls == nil {
			return true
		}
		for _, v := range mpls {
			if v == m {
				return true
			}
		}
		return false
	}
	if use(1) && t.IsolatedLatency > 0 {
		xs = append(xs, 1)
		ys = append(ys, t.IsolatedLatency)
	}
	for m, l := range t.SpoilerLatency {
		if use(m) {
			xs = append(xs, m)
			ys = append(ys, l)
		}
	}
	return FitSpoilerGrowth(xs, ys)
}

// SpoilerPredictor estimates a new template's spoiler latencies without
// running the spoiler at all, using only its isolated-execution statistics.
type SpoilerPredictor interface {
	// PredictGrowth returns the scale-independent growth model of the
	// template: coefficients of l_max(n)/l_min = µ·n + b. Multiply by
	// l_min to obtain latencies.
	PredictGrowth(t TemplateStats) (SpoilerGrowth, error)
	// Name identifies the predictor in experiment output.
	Name() string
}

// KNNSpoilerPredictor is Contender's approach (Section 5.5): project known
// templates into (working-set size, I/O fraction) space, find the k nearest
// to the new template, and average their normalized growth-model
// coefficients.
type KNNSpoilerPredictor struct {
	K   int
	knn *stats.KNN
}

// NewKNNSpoilerPredictor trains the predictor on the knowledge base's
// templates (those with at least two spoiler samples). k=3 matches the
// paper.
func NewKNNSpoilerPredictor(know *Knowledge, k int) (*KNNSpoilerPredictor, error) {
	if k <= 0 {
		k = 3
	}
	var feats, targets [][]float64
	for _, id := range know.IDs() {
		t := know.templates[id]
		g, err := normalizedGrowth(t)
		if err != nil {
			continue
		}
		feats = append(feats, []float64{t.WorkingSetBytes, t.IOFraction})
		targets = append(targets, []float64{g.Mu, g.B})
	}
	if len(feats) < k {
		return nil, fmt.Errorf("core: KNN spoiler predictor needs ≥%d trained templates, have %d", k, len(feats))
	}
	return &KNNSpoilerPredictor{K: k, knn: stats.NewKNN(k, feats, targets)}, nil
}

// PredictGrowth implements SpoilerPredictor.
func (p *KNNSpoilerPredictor) PredictGrowth(t TemplateStats) (SpoilerGrowth, error) {
	c := p.knn.Predict([]float64{t.WorkingSetBytes, t.IOFraction})
	return SpoilerGrowth{Mu: c[0], B: c[1]}, nil
}

// Name implements SpoilerPredictor.
func (p *KNNSpoilerPredictor) Name() string { return "KNN" }

// IOTimeSpoilerPredictor is the Figure 9 baseline: two univariate
// regressions predicting the growth coefficients from the I/O fraction p_t
// alone.
type IOTimeSpoilerPredictor struct {
	muFit stats.Linear
	bFit  stats.Linear
}

// NewIOTimeSpoilerPredictor trains the baseline on the knowledge base.
func NewIOTimeSpoilerPredictor(know *Knowledge) (*IOTimeSpoilerPredictor, error) {
	var ps, mus, bs []float64
	for _, id := range know.IDs() {
		t := know.templates[id]
		g, err := normalizedGrowth(t)
		if err != nil {
			continue
		}
		ps = append(ps, t.IOFraction)
		mus = append(mus, g.Mu)
		bs = append(bs, g.B)
	}
	muFit, err := stats.FitLinear(ps, mus)
	if err != nil {
		return nil, fmt.Errorf("core: I/O-time spoiler µ regression: %w", err)
	}
	bFit, err := stats.FitLinear(ps, bs)
	if err != nil {
		return nil, fmt.Errorf("core: I/O-time spoiler b regression: %w", err)
	}
	return &IOTimeSpoilerPredictor{muFit: muFit, bFit: bFit}, nil
}

// PredictGrowth implements SpoilerPredictor.
func (p *IOTimeSpoilerPredictor) PredictGrowth(t TemplateStats) (SpoilerGrowth, error) {
	return SpoilerGrowth{Mu: p.muFit.Predict(t.IOFraction), B: p.bFit.Predict(t.IOFraction)}, nil
}

// Name implements SpoilerPredictor.
func (p *IOTimeSpoilerPredictor) Name() string { return "I/O Time" }

// normalizedGrowth fits the scale-independent growth model of a template:
// spoiler latency divided by isolated latency, regressed on the MPL. The
// paper predicts growth rates rather than raw latencies so templates of
// different weights become comparable.
func normalizedGrowth(t TemplateStats) (SpoilerGrowth, error) {
	if t.IsolatedLatency <= 0 {
		return SpoilerGrowth{}, fmt.Errorf("core: template %d has no isolated latency", t.ID)
	}
	var xs []int
	var ys []float64
	xs = append(xs, 1)
	ys = append(ys, 1) // l_max(1)/l_min ≡ 1
	for m, l := range t.SpoilerLatency {
		xs = append(xs, m)
		ys = append(ys, l/t.IsolatedLatency)
	}
	if len(xs) < 2 {
		return SpoilerGrowth{}, fmt.Errorf("core: template %d has no spoiler samples", t.ID)
	}
	return FitSpoilerGrowth(xs, ys)
}

// PredictSpoilerLatency returns the predicted l_max of template t at the
// given MPL using a trained predictor: growth(n)·l_min.
func PredictSpoilerLatency(p SpoilerPredictor, t TemplateStats, mpl int) (float64, error) {
	g, err := p.PredictGrowth(t)
	if err != nil {
		return 0, err
	}
	l := g.Latency(mpl) * t.IsolatedLatency
	if l < t.IsolatedLatency {
		// The spoiler can never beat isolation; clamp degenerate fits.
		l = t.IsolatedLatency
	}
	return l, nil
}
