package sched

import (
	"time"

	"contender/internal/obs"
)

// Observed wraps a policy so every Order evaluation emits a
// sched.policy span (Key = policy name, MPL = level, Value = batch
// size). An empty sink returns p unchanged, keeping the
// uninstrumented path free of indirection.
func Observed(p Policy, o obs.Sink) Policy {
	if !o.On() {
		return p
	}
	return observedPolicy{inner: p, o: o}
}

type observedPolicy struct {
	inner Policy
	o     obs.Sink
}

// Name implements Policy.
func (p observedPolicy) Name() string { return p.inner.Name() }

// Order implements Policy.
func (p observedPolicy) Order(batch []int, mpl int, predict LatencyFunc) ([]int, error) {
	start := time.Now()
	order, err := p.inner.Order(batch, mpl, predict)
	p.o.Event(obs.Event{
		Kind:  obs.SpanEnd,
		Span:  obs.SpanSchedPolicy,
		Key:   p.inner.Name(),
		MPL:   mpl,
		Value: float64(len(batch)),
		Dur:   time.Since(start),
		Err:   obs.ErrLabel(err),
	})
	return order, err
}

// ObservedForecast is Forecast instrumented with a sched.forecast span
// (MPL = level, Value = predicted makespan). An empty sink forwards
// straight to Forecast.
func ObservedForecast(o obs.Sink, order []int, mpl int, predict LatencyFunc) ([]JobForecast, float64, error) {
	if !o.On() {
		return Forecast(order, mpl, predict)
	}
	start := time.Now()
	jobs, makespan, err := Forecast(order, mpl, predict)
	o.Event(obs.Event{
		Kind:  obs.SpanEnd,
		Span:  obs.SpanSchedForecast,
		MPL:   mpl,
		Value: makespan,
		Dur:   time.Since(start),
		Err:   obs.ErrLabel(err),
	})
	return jobs, makespan, err
}
