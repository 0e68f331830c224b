package sim

import (
	"fmt"
	"sort"
)

// Open-system execution: queries arrive over time and an admission gate
// decides when queued queries may start. This is the mechanism under the
// cloud-provisioning application of Section 1 — a predictive gate can hold
// back queries whose admission would blow the latency SLO of the queries
// already running.

// Arrival is one query submission at a point in virtual time.
type Arrival struct {
	Time float64
	Spec QuerySpec
}

// AdmitFunc decides whether the queue's head may start now, given the
// template IDs currently executing. It is consulted at every arrival and
// completion. An empty active set always admits regardless of the gate
// (no starvation).
type AdmitFunc func(now float64, candidate QuerySpec, active []int) bool

// OpenResult is one completed query of an open-system run.
type OpenResult struct {
	Result
	// ArrivalTime is when the query was submitted.
	ArrivalTime float64
	// QueueTime is how long it waited for admission.
	QueueTime float64
}

// ResponseTime is queueing delay plus execution latency.
func (o OpenResult) ResponseTime() float64 { return o.QueueTime + o.Latency }

// RunOpenSystem executes an arrival sequence under an admission gate and
// returns the per-query outcomes in arrival order. The gate is consulted
// for the queue head only (FIFO order is preserved); admission also stops
// at maxActive regardless of the gate. maxActive <= 0 means unbounded.
func (e *Engine) RunOpenSystem(arrivals []Arrival, maxActive int, admit AdmitFunc) ([]OpenResult, error) {
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: no arrivals")
	}
	for _, a := range arrivals {
		if err := a.Spec.Validate(); err != nil {
			return nil, err
		}
		if a.Time < 0 {
			return nil, fmt.Errorf("sim: negative arrival time %g", a.Time)
		}
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	e.reset()
	out := make([]OpenResult, len(sorted))
	type queued struct {
		idx     int
		arrival Arrival
	}
	var queue []queued
	nextArrival := 0
	completedCount := 0

	activeIDs := func() []int {
		var ids []int
		for _, r := range e.runs {
			if !r.done {
				ids = append(ids, r.spec.TemplateID)
			}
		}
		return ids
	}

	tryAdmit := func() {
		for len(queue) > 0 {
			if maxActive > 0 && len(e.runs) >= maxActive {
				return
			}
			head := queue[0]
			active := activeIDs()
			if len(active) > 0 && admit != nil && !admit(e.clock, head.arrival.Spec, active) {
				return
			}
			out[head.idx].ArrivalTime = head.arrival.Time
			out[head.idx].QueueTime = e.clock - head.arrival.Time
			e.addRun(head.arrival.Spec, head.idx)
			queue = queue[1:]
		}
	}

	admitArrivalsUpTo := func(now float64) {
		for nextArrival < len(sorted) && sorted[nextArrival].Time <= now+1e-12 {
			queue = append(queue, queued{idx: nextArrival, arrival: sorted[nextArrival]})
			nextArrival++
		}
	}

	const maxEvents = 10_000_000
	for ev := 0; ev < maxEvents; ev++ {
		admitArrivalsUpTo(e.clock)
		tryAdmit()

		if completedCount == len(sorted) {
			return out, nil
		}

		// If nothing is running, jump to the next arrival.
		if len(e.runs) == 0 {
			if nextArrival >= len(sorted) && len(queue) == 0 {
				return out, nil
			}
			if len(queue) == 0 {
				e.clock = sorted[nextArrival].Time
				continue
			}
			// Queue non-empty with nothing active: admission is forced.
			tryAdmit()
			if len(e.runs) == 0 {
				return nil, fmt.Errorf("sim: admission gate deadlocked with empty active set")
			}
		}

		// Advance to the next completion, but never past the next arrival.
		completed, ok := e.stepUntil(nextArrivalTime(sorted, nextArrival))
		if !ok {
			return nil, ErrStalled
		}
		for _, r := range completed {
			out[r.stream].Result = r.result
			completedCount++
		}
	}
	return nil, fmt.Errorf("sim: open system did not drain within %d events", maxEvents)
}

func nextArrivalTime(arrivals []Arrival, next int) float64 {
	if next < len(arrivals) {
		return arrivals[next].Time
	}
	return -1 // no more arrivals
}

// stepUntil advances like step but caps the time step at `deadline` (a
// virtual timestamp; negative = no cap) so arrivals are processed on time.
// The returned slice and its runs belong to the engine and are valid only
// until the next step: the step first moves the previous step's finished
// runs to the free list that addRun draws from.
func (e *Engine) stepUntil(deadline float64) (completed []*run, ok bool) {
	e.free = append(e.free, e.finished...)
	e.finished = e.finished[:0]
	progress, swap := e.rates()

	dt := -1.0
	active := false
	for i, r := range e.runs {
		if r.done {
			continue
		}
		active = true
		if progress[i] <= 0 {
			continue
		}
		if t := r.remaining / progress[i]; dt < 0 || t < dt {
			dt = t
		}
	}
	if !active || dt < 0 {
		return nil, false
	}
	if deadline >= 0 && e.clock+dt > deadline {
		dt = deadline - e.clock
		if dt < 0 {
			dt = 0
		}
	}
	e.clock += dt

	for i, r := range e.runs {
		if r.done || progress[i] <= 0 {
			continue
		}
		r.remaining -= progress[i] * dt
		st := r.spec.Stages[r.stageIdx]
		switch {
		case st.Kind.IsIO():
			r.ioTime += dt
		case st.Kind == StageCPU:
			r.cpuTime += dt
		}
		r.swapBytes += swap[i] * dt

		if r.remaining <= 1e-9*maxf(st.Amount, 1) {
			r.stageIdx++
			if r.stageIdx >= len(r.spec.Stages) {
				r.done = true
				r.result = Result{
					TemplateID: r.spec.TemplateID,
					Latency:    e.clock - r.start,
					IOTime:     r.ioTime,
					CPUTime:    r.cpuTime,
					SwapBytes:  r.swapBytes,
					Start:      r.start,
					End:        e.clock,
				}
				e.finished = append(e.finished, r)
				e.trace(TraceEvent{Kind: TraceComplete,
					TemplateID: r.spec.TemplateID, Stream: r.stream})
			} else {
				next := r.spec.Stages[r.stageIdx]
				r.remaining = next.Amount
				e.trace(TraceEvent{Kind: TraceStage,
					TemplateID: r.spec.TemplateID, Stream: r.stream,
					Stage: next.Kind, Table: next.Table})
			}
		}
	}
	e.compact()
	return e.finished, true
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
