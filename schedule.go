package contender

import (
	"errors"
	"fmt"
	"sort"

	"contender/internal/sched"
)

// Scheduling: the batch-scheduling application of the paper's
// introduction, exposed on the public API. A Predictor orders a query
// batch with a concurrency-aware policy and forecasts its completion
// timeline; a Workbench executes the schedule on the simulated host to
// validate it.

// SchedulePolicy orders a batch for admission.
type SchedulePolicy = sched.Policy

// Available policies.
var (
	// PolicyFIFO admits jobs in submission order.
	PolicyFIFO SchedulePolicy = sched.FIFO{}
	// PolicySJF admits shortest (isolated) jobs first.
	PolicySJF SchedulePolicy = sched.SJF{}
	// PolicyInteractionAware orders by predicted makespan using
	// Contender's concurrent-latency predictions.
	PolicyInteractionAware SchedulePolicy = sched.InteractionAware{}
)

// JobForecast is one job's predicted execution window in a schedule.
type JobForecast = sched.JobForecast

// batchLatency adapts the predictor to the scheduler: isolation uses the
// isolated latency; trained MPLs use the exact model; other MPLs fall back
// to the nearest trained MPL's QS model with the actual mix's CQI. An
// unknown template is an error, never a fallback.
func (p *Predictor) batchLatency(primary int, concurrent []int) (float64, error) {
	iso, ok := p.inner.Knowledge().IsolatedLatency(primary)
	if !ok {
		return 0, fmt.Errorf("contender: template %d: %w", primary, ErrUnknownTemplate)
	}
	if len(concurrent) == 0 {
		return iso, nil
	}
	l, err := p.PredictKnown(primary, concurrent)
	if err == nil {
		return clampMin(l, iso), nil
	}
	if errors.Is(err, ErrUnknownTemplate) {
		return 0, err
	}
	// Fall back to the nearest trained MPL.
	mpls := p.MPLs()
	if len(mpls) == 0 {
		return 0, fmt.Errorf("contender: %w: predictor has no trained MPLs", ErrUntrainedMPL)
	}
	want := len(concurrent) + 1
	nearest := mpls[0]
	for _, m := range mpls {
		if absInt(m-want) < absInt(nearest-want) {
			nearest = m
		}
	}
	refs, _ := p.inner.References(nearest)
	qs, ok := refs.Model(primary)
	if !ok {
		return 0, fmt.Errorf("contender: %w: no QS model for template %d", ErrUntrainedMPL, primary)
	}
	cont, ok := p.inner.Knowledge().ContinuumFor(primary, nearest)
	if !ok {
		return 0, fmt.Errorf("contender: %w: no continuum for template %d at MPL %d", ErrUntrainedMPL, primary, nearest)
	}
	r, err := p.inner.Knowledge().CQI(primary, concurrent)
	if err != nil {
		return 0, err
	}
	return clampMin(cont.Latency(qs.Point(r)), iso), nil
}

func clampMin(v, floor float64) float64 {
	if v < floor {
		return floor
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ScheduleBatch orders a batch with the given policy and returns the
// admission order, the per-job forecast, and the predicted makespan.
// With an observer installed on the predictor, each call emits a
// sched.policy span (Key = policy name) and a sched.forecast span.
func (p *Predictor) ScheduleBatch(batch []int, mpl int, policy SchedulePolicy) ([]int, []JobForecast, float64, error) {
	if len(batch) == 0 {
		return nil, nil, 0, fmt.Errorf("contender: empty batch")
	}
	if policy == nil {
		return nil, nil, 0, fmt.Errorf("contender: nil schedule policy")
	}
	o := p.inner.Observer()
	order, err := sched.Observed(policy, o).Order(batch, mpl, p.batchLatency)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs, span, err := sched.ObservedForecast(o, order, mpl, p.batchLatency)
	if err != nil {
		return nil, nil, 0, err
	}
	return order, jobs, span, nil
}

// ForecastBatch predicts the completion timeline of a fixed admission
// order at the given MPL without reordering.
func (p *Predictor) ForecastBatch(order []int, mpl int) ([]JobForecast, float64, error) {
	return sched.ObservedForecast(p.inner.Observer(), order, mpl, p.batchLatency)
}

// RunBatch executes an admission order on the simulated host at the given
// MPL and returns the per-job results (in order) and the measured
// makespan — ground truth for schedule validation.
func (w *Workbench) RunBatch(order []int, mpl int) ([]QueryResult, float64, error) {
	specs, err := w.specs(order...)
	if err != nil {
		return nil, 0, err
	}
	return w.env.Engine.RunBatch(specs, mpl)
}

// ComparePolicies runs every given policy on the same batch, both in
// forecast and on the simulator, and returns the outcomes sorted by
// measured makespan (best first).
func ComparePolicies(wb *Workbench, pred *Predictor, batch []int, mpl int, policies ...SchedulePolicy) ([]PolicyOutcome, error) {
	if len(policies) == 0 {
		policies = []SchedulePolicy{PolicyFIFO, PolicySJF, PolicyInteractionAware}
	}
	var out []PolicyOutcome
	for _, pol := range policies {
		if pol == nil {
			return nil, fmt.Errorf("contender: nil schedule policy")
		}
		order, _, forecast, err := pred.ScheduleBatch(batch, mpl, pol)
		if err != nil {
			return nil, fmt.Errorf("contender: policy %s: %w", pol.Name(), err)
		}
		_, measured, err := wb.RunBatch(order, mpl)
		if err != nil {
			return nil, err
		}
		out = append(out, PolicyOutcome{
			Policy:           pol.Name(),
			Order:            order,
			ForecastMakespan: forecast,
			MeasuredMakespan: measured,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeasuredMakespan < out[j].MeasuredMakespan })
	return out, nil
}

// PolicyOutcome is one policy's result in ComparePolicies.
type PolicyOutcome struct {
	Policy           string
	Order            []int
	ForecastMakespan float64
	MeasuredMakespan float64
}
