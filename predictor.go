package contender

import (
	"fmt"
	"io"
	"os"

	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/obs"
)

// Predictor is a trained Contender instance: reference QS models for every
// sampled MPL plus the knowledge base of isolated statistics.
type Predictor struct {
	inner *core.Predictor
	env   *experiments.Env
}

// MPLs returns the multiprogramming levels the predictor was trained for.
func (p *Predictor) MPLs() []int { return p.inner.MPLs() }

// SetObserver installs (or, with nil, removes) the observer that
// receives this predictor's serve.* spans. Predictors trained with
// WithObserver or TrainConfig.Observer inherit the training observer
// automatically; SetObserver exists for predictors loaded from a
// snapshot. It rebinds this handle to a copy of the model carrying the
// new observer, so a Sharded or server already serving the model keeps
// its own. Without an observer the serving hot path performs no clock
// reads and no allocations.
func (p *Predictor) SetObserver(o Observer) {
	p.inner = p.inner.WithHooks(obs.Isolate(o), p.inner.Quality())
}

// Observer returns the predictor's serving observer, isolated as the
// predictor holds it (nil when none).
func (p *Predictor) Observer() Observer { return observerOf(p.inner.Observer()) }

// SetQuality installs (or, with nil, removes) the prediction-quality
// aggregator that Feedback streams into. Predictors trained with
// WithQuality or TrainConfig.Quality inherit it automatically;
// SetQuality exists for predictors loaded from a snapshot. Like
// SetObserver it rebinds only this handle. The aggregation is entirely
// off the uninstrumented serving path.
func (p *Predictor) SetQuality(q *Quality) { p.inner = p.inner.WithHooks(p.inner.Observer(), q) }

// Quality returns the installed quality aggregator (nil when none).
func (p *Predictor) Quality() *Quality { return p.inner.Quality() }

// QualityReport snapshots the installed quality aggregator; an empty
// report without one.
func (p *Predictor) QualityReport() QualityReport { return p.inner.QualityReport() }

// Feedback closes the prediction loop: it pairs an observed latency for
// (template, concurrent) with the prediction the pipeline serves for
// that mix, records the signed relative error in the quality aggregator
// (when one is installed), and reports the template's drift state.
// With an observer installed it also emits quality.feedback and
// quality.drift points. The warm path performs no heap allocations.
func (p *Predictor) Feedback(template int, concurrent []int, observedLatency float64) (FeedbackResult, error) {
	return p.inner.Feedback(template, concurrent, observedLatency)
}

// PredictKnown estimates the steady-state latency of a known template
// executing concurrently with the given templates (the mix's MPL is
// len(concurrent)+1). The pipeline is the paper's: compute the mix's CQI,
// apply the template's QS model, scale by its measured performance
// continuum.
func (p *Predictor) PredictKnown(template int, concurrent []int) (float64, error) {
	return p.inner.PredictKnown(template, concurrent)
}

// CQI returns the Concurrent Query Intensity of a mix from the primary's
// point of view — the fraction of time the concurrent queries will spend
// competing with it for the I/O bus (Eq. 5 of the paper); 0 for an empty
// mix. An unknown primary or neighbor is an error wrapping
// ErrUnknownTemplate; use CQIForStats for ad-hoc primaries.
func (p *Predictor) CQI(primary int, concurrent []int) (float64, error) {
	o := p.inner.Observer()
	if !o.On() {
		return p.inner.Knowledge().CQI(primary, concurrent)
	}
	start := obs.Mono()
	r, err := p.inner.Knowledge().CQI(primary, concurrent)
	o.Event(Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanServeCQI,
		Template: primary,
		MPL:      len(concurrent) + 1,
		Value:    r,
		Dur:      obs.Mono() - start,
		Err:      obs.ErrLabel(err),
	})
	return r, err
}

// CQIForStats computes the mix's CQI for an ad-hoc primary described by
// its isolated statistics. The concurrent templates must be known; an
// unknown one returns an error wrapping ErrUnknownTemplate.
func (p *Predictor) CQIForStats(primary TemplateStats, concurrent []int) (float64, error) {
	return p.inner.Knowledge().CQIForStats(primary, concurrent)
}

// PredictBuffer holds the reusable scratch space of PredictBatch. The zero
// value is ready to use; reusing one buffer across calls keeps the serving
// hot path allocation-free.
type PredictBuffer = core.PredictBuffer

// PredictBatch predicts the primary's latency under every mix, appending
// into buf's storage and returning the filled slice (valid until the next
// call with the same buffer). A warm buffer makes the call perform no
// heap allocations.
func (p *Predictor) PredictBatch(buf *PredictBuffer, primary int, mixes [][]int) ([]float64, error) {
	return p.inner.PredictBatch(buf, primary, mixes)
}

// ExplainBuffer receives one Explain decomposition: the served
// prediction, the zero-contention baseline, and each concurrent
// template's additive share of the interaction (intensity and predicted
// seconds). The zero value is ready; reusing one buffer keeps the
// explain path allocation-free.
type ExplainBuffer = core.ExplainBuffer

// Explain is PredictKnown plus blame attribution: it writes the
// per-neighbor decomposition of the interaction cost into buf. The
// returned latency (and buf.Total) is bit-identical to PredictKnown for
// the same arguments — the decomposition records the terms of the same
// CQI summation in the same order rather than recomputing anything.
func (p *Predictor) Explain(buf *ExplainBuffer, primary int, concurrent []int) (float64, error) {
	return p.inner.PredictExplain(buf, primary, concurrent)
}

// QSModelFor returns the reference QS model of a known template at an MPL.
func (p *Predictor) QSModelFor(template, mpl int) (QSModel, bool) {
	refs, ok := p.inner.References(mpl)
	if !ok {
		return QSModel{}, false
	}
	return refs.Model(template)
}

// NewTemplateMode selects how PredictNew fills in an ad-hoc template's
// spoiler latency.
type NewTemplateMode int

const (
	// SpoilerMeasured uses measured spoiler latencies from the template's
	// stats (linear-time sampling: one spoiler run per MPL).
	SpoilerMeasured NewTemplateMode = iota
	// SpoilerKNN predicts spoiler latencies from the template's isolated
	// statistics via KNN over known templates (constant-time sampling:
	// a single isolated execution suffices).
	SpoilerKNN
)

// PredictNew estimates the latency of a template that was never sampled
// under concurrency, reproducing Figure 5: the QS model is estimated from
// the reference models via the template's isolated latency, and the
// spoiler latency is either measured (SpoilerMeasured) or predicted
// (SpoilerKNN).
func (p *Predictor) PredictNew(t TemplateStats, concurrent []int, mode NewTemplateMode) (float64, error) {
	opts := core.NewTemplateOptions{}
	if mode == SpoilerKNN {
		knn, err := core.NewKNNSpoilerPredictor(p.inner.Knowledge(), 3)
		if err != nil {
			return 0, fmt.Errorf("contender: building spoiler predictor: %w", err)
		}
		opts.Spoiler = knn
	}
	return p.inner.PredictNew(t, concurrent, opts)
}

// PredictSpoiler predicts the worst-case (spoiler) latency of an ad-hoc
// template at an MPL from its isolated statistics alone.
func (p *Predictor) PredictSpoiler(t TemplateStats, mpl int) (float64, error) {
	knn, err := core.NewKNNSpoilerPredictor(p.inner.Knowledge(), 3)
	if err != nil {
		return 0, err
	}
	return core.PredictSpoilerLatency(knn, t, mpl)
}

// Knowledge exposes the underlying knowledge base for advanced use
// (inspection, custom experiments).
func (p *Predictor) Knowledge() *core.Knowledge { return p.inner.Knowledge() }

// ProgressTracker is a concurrency-aware query progress indicator — one of
// the paper's motivating applications. See Predictor.TrackProgress.
type ProgressTracker = core.ProgressTracker

// TrackProgress returns a progress indicator for one execution of a known
// template. Feed it the observed timeline with Advance(dt, concurrent);
// Remaining(concurrent) estimates the time to completion under the current
// mix. Isolation (no concurrent queries) uses the template's isolated
// latency directly.
func (p *Predictor) TrackProgress(template int) (*ProgressTracker, error) {
	iso, ok := p.inner.Knowledge().IsolatedLatency(template)
	if !ok {
		return nil, fmt.Errorf("contender: template %d: %w", template, ErrUnknownTemplate)
	}
	return core.NewProgressTracker(func(concurrent []int) (float64, error) {
		if len(concurrent) == 0 {
			return iso, nil
		}
		return p.PredictKnown(template, concurrent)
	}), nil
}

// Save serializes the trained predictor to w as JSON, so training cost is
// paid once and reused across processes. Reload with LoadPredictor.
func (p *Predictor) Save(w io.Writer) error {
	return p.inner.WriteSnapshot(w)
}

// SaveFile writes the predictor snapshot to a file.
func (p *Predictor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("contender: creating snapshot: %w", err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	return f.Close()
}
