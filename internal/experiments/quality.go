package experiments

import (
	"errors"
	"fmt"

	"contender/internal/core"
	"contender/internal/obs"
)

// ExtQuality demonstrates the online prediction-quality loop end to end:
// train a predictor on the environment's samples, replay the collected
// observations through Predictor.Feedback as if they were live observed
// latencies, then inject a workload shift — a deterministic subset of
// "victim" templates starts running qualityShiftFactor× slower than the
// model was trained for — and watch the drift detector move exactly
// those templates through healthy → degraded → stale while everyone
// else stays healthy.
//
// Everything is seed-deterministic: the replay order is the canonical
// sample order (identical at every worker count), the victims are
// chosen by sorted template ID, and the detector itself contains no
// clocks or randomness — so the rendered table is byte-identical across
// -workers widths and safe to golden-test.

const (
	// qualityHealthyRounds replays the training observations unshifted,
	// establishing the per-template error baseline.
	qualityHealthyRounds = 2
	// qualityShiftRounds replays them with victims slowed down.
	qualityShiftRounds = 3
	// qualityShiftFactor scales the victims' observed latencies: 1.8×
	// puts their signed relative error near +0.45, far past the drift
	// tolerance.
	qualityShiftFactor = 1.8
)

// qualityDriftConfig tunes the detector for the replay. The thresholds
// are looser than the serving defaults because training-replay errors
// are noisier than live feedback: non-victim templates must ride out
// hundreds of fluctuating samples without a false positive, while the
// +0.45 shift of a victim still fires within a handful.
func qualityDriftConfig() obs.DriftConfig {
	return obs.DriftConfig{
		MinSamples: 10,
		Delta:      0.1,
		Lambda:     3.0,
		StaleMRE:   0.35,
		RecoverMRE: 0.15,
		Window:     12,
	}
}

// qualityVictims picks the shifted templates deterministically: the
// first and the middle of the sorted trained-template list.
func qualityVictims(trained []int) []int {
	if len(trained) < 2 {
		return trained
	}
	return []int{trained[0], trained[len(trained)/2]}
}

// ExtQuality runs the drift-detection replay.
func ExtQuality(e *Env) (*Result, error) {
	p, err := core.Train(e.Know, e.AllObservations(), core.TrainOptions{DropOutliers: true})
	if err != nil {
		return nil, err
	}
	quality := obs.NewQuality(qualityDriftConfig())
	p = p.WithHooks(obs.Sink{}, quality)

	// Trained templates: those with a reference QS model at the lowest
	// sampled MPL (sorted, so victim selection is order-independent).
	mpls := e.sortedMPLs()
	refs, ok := p.References(mpls[0])
	if !ok {
		return nil, fmt.Errorf("ext-quality: %w: no reference models at MPL %d", core.ErrUntrainedMPL, mpls[0])
	}
	var trained []int
	for _, id := range e.TemplateIDs() {
		if _, ok := refs.Model(id); ok {
			trained = append(trained, id)
		}
	}
	if len(trained) < 2 {
		return nil, fmt.Errorf("ext-quality: %w: only %d trained templates", core.ErrUntrainedMPL, len(trained))
	}
	victims := qualityVictims(trained)
	victimSet := make(map[int]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}

	// Replay: the healthy rounds feed the observations back verbatim;
	// the shifted rounds slow the victims down. Serial and in canonical
	// sample order, so the feedback stream is identical at every
	// collection worker count.
	fed, skipped := 0, 0
	for round := 0; round < qualityHealthyRounds+qualityShiftRounds; round++ {
		shifted := round >= qualityHealthyRounds
		for _, mpl := range mpls {
			for _, o := range e.Observations(mpl) {
				observed := o.Latency
				if shifted && victimSet[o.Primary] {
					observed *= qualityShiftFactor
				}
				if _, err := p.Feedback(o.Primary, o.Concurrent, observed); err != nil {
					if errors.Is(err, core.ErrUntrainedMPL) || errors.Is(err, core.ErrUnknownTemplate) {
						skipped++
						continue
					}
					return nil, fmt.Errorf("ext-quality: feedback for T%d: %w", o.Primary, err)
				}
				fed++
			}
		}
	}

	rep := quality.Report()
	res := &Result{
		ID:     "ext-quality",
		Title:  "Extension §8 — online prediction quality and drift detection",
		Paper:  "beyond the paper: Eq. 6 relative error, tracked online per template with a Page-Hinkley drift detector",
		Header: []string{"template", "role", "samples", "MRE", "p90 |err|", "window MRE", "state", "transitions"},
	}
	var healthy, degraded, stale, victimFlipped int
	for _, t := range rep.Templates {
		role := "-"
		if victimSet[t.Template] {
			role = "victim"
		}
		res.AddRow(
			fmt.Sprintf("T%d", t.Template),
			role,
			fmt.Sprintf("%d", t.Count),
			fmtPct(t.MRE),
			fmtPct(t.P90),
			fmtPct(t.WindowMRE),
			t.State,
			fmt.Sprintf("%d", t.Transitions),
		)
		switch t.State {
		case obs.DriftHealthy.String():
			healthy++
		case obs.DriftDegraded.String():
			degraded++
		case obs.DriftStale.String():
			stale++
		}
		if victimSet[t.Template] && t.State != obs.DriftHealthy.String() {
			victimFlipped++
		}
	}
	res.SetMetric("templates", float64(len(rep.Templates)))
	res.SetMetric("samples", float64(fed))
	res.SetMetric("skipped", float64(skipped))
	res.SetMetric("victims", float64(len(victims)))
	res.SetMetric("victims_flipped", float64(victimFlipped))
	res.SetMetric("healthy", float64(healthy))
	res.SetMetric("degraded", float64(degraded))
	res.SetMetric("stale", float64(stale))
	res.Notes = append(res.Notes,
		fmt.Sprintf("victims %s run %.1f× slower after %d clean replay rounds; drift must flip them (and only them)",
			fmtIDs(victims), qualityShiftFactor, qualityHealthyRounds),
		fmt.Sprintf("detector: Page-Hinkley δ=%.2f λ=%.1f, stale ≥ %.0f%% window MRE, recover ≤ %.0f%%, window %d",
			qualityDriftConfig().Delta, qualityDriftConfig().Lambda,
			100*qualityDriftConfig().StaleMRE, 100*qualityDriftConfig().RecoverMRE, qualityDriftConfig().Window),
	)
	return res, nil
}

// fmtIDs renders template IDs as "T2+T61".
func fmtIDs(ids []int) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += "+"
		}
		out += fmt.Sprintf("T%d", id)
	}
	return out
}
