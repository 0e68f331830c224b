package core

import (
	"fmt"
	"math"

	"contender/internal/obs"
)

// Online prediction-quality feedback (closing the loop the paper leaves
// open): Feedback pairs an observed latency with the prediction the
// pipeline would serve for the same mix, streams the signed relative
// error into an obs.Quality aggregator, and reports drift transitions.
//
// Feedback is opt-in and entirely off the uninstrumented serving path:
// PredictKnown/PredictBatch never consult the quality tracker, and a
// predictor without hooks (WithHooks) pays nothing.

// Quality returns the installed quality aggregator (nil when none).
func (p *Predictor) Quality() *obs.Quality { return p.quality }

// QualityReport snapshots the installed quality aggregator. Without one
// it returns an empty report, so callers need not nil-check.
func (p *Predictor) QualityReport() obs.QualityReport { return p.quality.Report() }

// FeedbackResult reports one feedback observation: the prediction that
// was compared, the signed relative error, and the template's drift
// state after folding the sample in.
type FeedbackResult struct {
	// Predicted is the latency the pipeline predicts for the mix.
	Predicted float64
	// Observed is the caller-supplied observed latency.
	Observed float64
	// SignedError is (Observed-Predicted)/Observed: positive when the
	// predictor underestimates.
	SignedError float64
	// State/Previous are the template's drift states after/before the
	// sample; Transitioned is true when they differ.
	State        obs.DriftState
	Previous     obs.DriftState
	Transitioned bool
}

// Feedback pairs an observed latency for (primary, concurrent) with the
// prediction the pipeline serves for that mix and folds the signed
// relative error into the quality aggregator (when one is installed via
// WithHooks). Prediction errors (unknown template, untrained MPL,
// empty mix), non-positive or non-finite observed latencies, and
// observations so small that the relative error overflows return an
// error without recording anything.
//
// With a quality aggregator and an observer installed, every sample
// emits a quality.feedback point and every drift transition a
// quality.drift point. With neither installed the call only computes
// the error. The warm path performs no heap allocations.
func (p *Predictor) Feedback(primary int, concurrent []int, observed float64) (FeedbackResult, error) {
	if observed <= 0 || math.IsNaN(observed) || math.IsInf(observed, 0) {
		return FeedbackResult{}, fmt.Errorf("core: %w: observed latency %g", ErrBadObservation, observed)
	}
	predicted, err := p.predictKnown(primary, concurrent)
	if err != nil {
		return FeedbackResult{}, err
	}
	signed, err := signedError(observed, predicted)
	if err != nil {
		return FeedbackResult{}, err
	}
	res := FeedbackResult{Predicted: predicted, Observed: observed, SignedError: signed}
	if p.quality != nil {
		d := p.quality.Observe(primary, signed)
		res.State, res.Previous, res.Transitioned = d.State, d.Previous, d.Transitioned
		if p.observer.On() && d.Transitioned {
			p.observer.Event(obs.Event{
				Kind:     obs.Point,
				Span:     obs.PointQualityDrift,
				Key:      obs.TransitionLabel(d.Previous, d.State),
				Template: primary,
				MPL:      len(concurrent) + 1,
				Value:    d.WindowMRE,
			})
		}
	}
	if p.observer.On() {
		p.observer.Event(obs.Event{
			Kind:     obs.Point,
			Span:     obs.PointQualityFeedback,
			Template: primary,
			MPL:      len(concurrent) + 1,
			Value:    signed,
		})
	}
	return res, nil
}

// signedError is the relative error (observed−predicted)/observed. It
// is refused as ErrBadObservation when it is not finite: a subnormal
// observation overflows it, and folding ±Inf would poison the quality
// window.
func signedError(observed, predicted float64) (float64, error) {
	signed := (observed - predicted) / observed
	if math.IsInf(signed, 0) || math.IsNaN(signed) {
		return 0, fmt.Errorf("core: %w: observed latency %g gives relative error %g", ErrBadObservation, observed, signed)
	}
	return signed, nil
}
