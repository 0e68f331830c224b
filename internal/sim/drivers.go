package sim

import (
	"errors"
	"fmt"
)

// ErrStalled is returned when the simulation cannot make progress (which
// indicates an internal invariant violation, e.g. a stage with zero rate
// forever).
var ErrStalled = errors.New("sim: simulation stalled")

// RunIsolated executes spec alone on an idle host and returns its result.
// This is the paper's l_min measurement and also the source of the isolated
// statistics (I/O fraction p_t, working set) Contender trains on.
func (e *Engine) RunIsolated(spec QuerySpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	e.reset()
	e.addRun(spec, -1)
	return e.drainOne()
}

// RunWithSpoiler executes spec against the spoiler configured for the given
// MPL: (1-1/mpl) of RAM pinned and mpl-1 competing sequential I/O streams.
// The returned latency is the paper's l_max (spoiler latency) for that MPL.
// mpl <= 1 degenerates to an isolated run.
func (e *Engine) RunWithSpoiler(spec QuerySpec, mpl int) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	e.reset()
	e.setSpoiler(mpl)
	e.addRun(spec, -1)
	return e.drainOne()
}

func (e *Engine) drainOne() (Result, error) {
	for {
		completed, ok := e.step()
		if !ok {
			return Result{}, ErrStalled
		}
		if len(completed) > 0 {
			return completed[0].result, nil
		}
	}
}

// MeasureScanTime returns the time to sequentially scan `bytes` of a table
// in isolation — the paper's s_f, measured "by executing a query consisting
// of only the sequential scan".
func (e *Engine) MeasureScanTime(table string, bytes float64) (float64, error) {
	res, err := e.RunIsolated(QuerySpec{
		TemplateID: -1,
		Stages:     []Stage{{Kind: StageSeqIO, Table: table, Amount: bytes}},
	})
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}

// SteadyStateOptions controls a steady-state mix experiment (Figure 2 of
// the paper): one stream per mix slot, each starting a fresh instance of
// its template when the prior one ends.
type SteadyStateOptions struct {
	// Samples is the number of measured completions per stream (the paper
	// uses 5). Defaults to 5.
	Samples int
	// WarmupSkip discards this many leading completions per stream so all
	// measurements happen at the full multiprogramming level. Defaults to 1.
	WarmupSkip int
	// RestartCost, if non-nil, is prepended to every instance after the
	// first of each stream (plan generation and dimension re-caching).
	RestartCost []Stage
	// MaxEvents bounds the event count as a safety valve. Defaults to 10M.
	MaxEvents int
}

// SteadyStateResult holds per-stream measurements of a steady-state run.
// Samples aliases scratch the engine keeps across runs: it is valid until
// the engine's next run, so a caller that keeps it must copy it.
type SteadyStateResult struct {
	// Mix is the executed template specs, one per stream.
	Mix []QuerySpec
	// Samples[i] are the measured latencies of stream i (post-warmup).
	Samples [][]float64
	// Duration is the virtual time the experiment spanned.
	Duration float64
}

// MeanLatency returns the average measured latency of stream i.
func (r SteadyStateResult) MeanLatency(i int) float64 {
	s := r.Samples[i]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// RunSteadyState executes the mix at a constant multiprogramming level until
// every stream has collected the requested number of post-warmup samples.
// Streams keep restarting even after they finish collecting, so conditions
// stay consistent for the laggards (the paper's "steady state" technique).
// A warm engine runs it without allocating: the restart specs, completion
// counts and samples live in engine scratch, which the result's Samples
// alias until the next run.
func (e *Engine) RunSteadyState(mix []QuerySpec, opts SteadyStateOptions) (SteadyStateResult, error) {
	if len(mix) == 0 {
		return SteadyStateResult{}, fmt.Errorf("sim: empty mix")
	}
	for _, q := range mix {
		if err := q.Validate(); err != nil {
			return SteadyStateResult{}, err
		}
	}
	if opts.Samples <= 0 {
		opts.Samples = 5
	}
	if opts.WarmupSkip < 0 {
		opts.WarmupSkip = 1
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 10_000_000
	}

	e.reset()
	res := SteadyStateResult{Mix: mix, Samples: e.sampleRows(len(mix), opts.Samples)}
	e.completions = resize(e.completions, len(mix))
	completions := e.completions
	// restart[i] is stream i's spec for every instance after its first.
	restart := mix
	if len(opts.RestartCost) > 0 {
		restart = e.restartSpecs(mix, opts.RestartCost)
	}
	for i, q := range mix {
		e.addRun(q, i)
	}

	collected := func() bool {
		for i := range mix {
			if len(res.Samples[i]) < opts.Samples {
				return false
			}
		}
		return true
	}

	for ev := 0; ev < opts.MaxEvents; ev++ {
		completed, ok := e.step()
		if !ok {
			return res, ErrStalled
		}
		for _, r := range completed {
			s := r.stream
			completions[s]++
			if completions[s] > opts.WarmupSkip && len(res.Samples[s]) < opts.Samples {
				res.Samples[s] = append(res.Samples[s], r.result.Latency)
			}
			// Keep the mix constant: immediately start the next instance.
			e.addRun(restart[s], s)
		}
		if collected() {
			res.Duration = e.clock
			return res, nil
		}
	}
	return res, fmt.Errorf("sim: steady state did not converge within %d events", opts.MaxEvents)
}

// sampleRows returns one empty row of capacity samples per stream, all
// windows of the engine's sample slab.
func (e *Engine) sampleRows(streams, samples int) [][]float64 {
	e.sampleSlab = resize(e.sampleSlab, streams*samples)
	e.sampleRowBuf = resize(e.sampleRowBuf, streams)
	for i := range e.sampleRowBuf {
		e.sampleRowBuf[i] = e.sampleSlab[i*samples : i*samples : (i+1)*samples]
	}
	return e.sampleRowBuf
}

// restartSpecs returns mix with cost prepended to every spec's stages,
// written into the engine's restart scratch.
func (e *Engine) restartSpecs(mix []QuerySpec, cost []Stage) []QuerySpec {
	n := 0
	for _, q := range mix {
		n += len(cost) + len(q.Stages)
	}
	stages := resize(e.restartStages, n)
	e.restartStages = stages
	e.restart = resize(e.restart, len(mix))
	for i, q := range mix {
		k := len(cost) + len(q.Stages)
		copy(stages, cost)
		copy(stages[len(cost):k], q.Stages)
		e.restart[i] = q
		e.restart[i].Stages, stages = stages[:k:k], stages[k:]
	}
	return e.restart
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
