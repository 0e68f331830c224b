package sim

import (
	"math"
	"math/rand"
)

// Engine executes query specs on the simulated host. It is single-threaded
// and deterministic for a fixed Config.Seed. An Engine may be reused across
// runs; each driver call resets the active-run state but keeps advancing the
// same noise stream, so repeated measurements see fresh jitter. Reseed
// starts it over as a new engine would.
type Engine struct {
	cfg Config
	// src is the noise source and rng reads it; both live as long as
	// the engine, and Reseed restarts src in place.
	src   source
	rng   *rand.Rand
	clock float64
	runs  []*run

	// Spoiler state: pinned RAM plus a number of infinite sequential
	// I/O streams, each counting as one disk consumer.
	spoilerPinBytes float64
	spoilerStreams  int

	// tracer, when non-nil, observes executor lifecycle events.
	tracer Tracer

	// Per-step scratch, so a warm step allocates nothing. progress, swap
	// and inflation are indexed like runs and written by rates; addRun
	// grows them. finished holds the runs the last step completed and is
	// valid until the next step, which moves them to free; addRun takes
	// its runs (and their Stages buffers) from free.
	progress, swap, inflation []float64
	finished                  []*run
	free                      []*run

	// RunSteadyState scratch, so a warm steady-state run allocates
	// nothing: the restart specs and their stages, the per-stream
	// completion counts, and the slab the result's sample rows are
	// windows of. A result aliases it until the next run.
	restart       []QuerySpec
	restartStages []Stage
	completions   []int
	sampleSlab    []float64
	sampleRowBuf  [][]float64
}

// run is one in-flight query instance.
type run struct {
	spec QuerySpec
	// ioBytes is the spec's TotalIOBytes, at least one page: the useful
	// I/O volume that swap inflation is normalized against.
	ioBytes   float64
	stageIdx  int
	remaining float64
	start     float64
	ioTime    float64
	cpuTime   float64
	swapBytes float64
	stream    int // steady-state slot, -1 otherwise
	done      bool
	result    Result
}

// NewEngine builds an engine; it panics on an invalid config (a programming
// error, not a runtime condition).
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{cfg: cfg}
	e.rng = rand.New(&e.src)
	e.src.Seed(cfg.Seed)
	return e
}

// Reseed puts the engine back in the state NewEngine(cfg.WithSeed(seed))
// returns, for the engine's own config: the clock, runs, spoiler and
// tracer are cleared and the noise stream restarts from seed. Only the
// run free list and the step and steady-state scratch survive, so a
// reseeded engine runs warm where a new one would allocate. It is valid after any run, also
// one a panicking tracer cut short.
func (e *Engine) Reseed(seed int64) {
	e.reset()
	e.cfg.Seed = seed
	e.tracer = nil
	e.rng.Seed(seed)
}

// Config returns the engine's host configuration.
func (e *Engine) Config() Config { return e.cfg }

// Clock returns the current virtual time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// reset clears all run state (but not the RNG, so instance noise differs
// between consecutive measurements, as it would on real hardware). Runs
// still active or just finished go to the free list, each once: a step
// that a panicking tracer cut short can leave a finished run in runs too.
func (e *Engine) reset() {
	e.clock = 0
	e.free = append(e.free, e.finished...)
	for _, r := range e.runs {
		if !r.done {
			e.free = append(e.free, r)
		}
	}
	e.runs, e.finished = e.runs[:0], e.finished[:0]
	e.spoilerPinBytes = 0
	e.spoilerStreams = 0
}

// setSpoiler installs the paper's spoiler for MPL n: (1-1/n) of RAM pinned
// and n-1 infinite sequential I/O streams. n <= 1 clears it.
func (e *Engine) setSpoiler(mpl int) {
	if mpl <= 1 {
		e.spoilerPinBytes, e.spoilerStreams = 0, 0
		return
	}
	e.spoilerPinBytes = (1 - 1/float64(mpl)) * e.cfg.RAMBytes
	e.spoilerStreams = mpl - 1
}

// jitter returns spec with per-instance and per-stage log-normal noise
// applied, modeling predicate variation and I/O-timing variance. The
// jittered stages are written into buf, or a new buffer if buf is short.
func (e *Engine) jitter(buf []Stage, spec QuerySpec) QuerySpec {
	inst := lognormal(e.rng, e.cfg.InstanceNoise)
	out := spec
	out.Stages = buf[:0]
	if cap(buf) < len(spec.Stages) {
		out.Stages = make([]Stage, 0, len(spec.Stages))
	}
	for _, s := range spec.Stages {
		var sigma float64
		switch s.Kind {
		case StageSeqIO, StageCachedIO:
			sigma = e.cfg.SeqNoise
		case StageRandIO:
			sigma = e.cfg.RandNoise
		case StageCPU:
			sigma = e.cfg.CPUNoise
		}
		s.Amount *= inst * lognormal(e.rng, sigma)
		out.Stages = append(out.Stages, s)
	}
	return out
}

func lognormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
}

// addRun starts a (jittered) instance of spec at the current clock,
// reusing a run from the free list when there is one, and grows the rate
// scratch to cover the new run.
func (e *Engine) addRun(spec QuerySpec, stream int) *run {
	var r *run
	if n := len(e.free); n > 0 {
		r, e.free = e.free[n-1], e.free[:n-1]
	} else {
		r = new(run)
	}
	*r = run{spec: e.jitter(r.spec.Stages, spec), start: e.clock, stream: stream}
	r.ioBytes = maxf(r.spec.TotalIOBytes(e.cfg.PageBytes), e.cfg.PageBytes)
	r.remaining = r.spec.Stages[0].Amount
	e.runs = append(e.runs, r)
	if n := len(e.runs); cap(e.progress) < n {
		e.progress = make([]float64, n, 2*n)
		e.swap = make([]float64, n, 2*n)
		e.inflation = make([]float64, n, 2*n)
	}
	first := r.spec.Stages[0]
	e.trace(TraceEvent{Kind: TraceStart, TemplateID: r.spec.TemplateID,
		Stream: stream, Stage: first.Kind, Table: first.Table})
	return r
}

// rates computes, for every active run, the progress rate in the native
// units of its current stage (bytes/s, pages/s, or cpu-seconds/s), along
// with the swap-traffic rate in bytes/s used for accounting. Both slices
// are engine scratch, valid until the next call.
//
// The disk is shared equally among its consumers: the spoiler's streams,
// every random-I/O run, and every scanner that no earlier live run is
// already scanning the same table alongside (with SharedScans off, every
// scanner). Members of a shared-scan group each advance at the same
// share as a lone scanner, so the group needs no state beyond that count.
func (e *Engine) rates() (progress, swap []float64) {
	n := len(e.runs)
	progress, swap = e.progress[:n], e.swap[:n]
	inflation := e.inflation[:n]

	// Memory pressure: proportional spill of each pinned working set.
	var totalWS float64
	for _, r := range e.runs {
		if !r.done {
			totalWS += r.spec.WorkingSetBytes
		}
	}
	avail := e.cfg.RAMBytes - e.cfg.BaselineRAMBytes - e.spoilerPinBytes
	deficit := totalWS - avail
	if deficit < 0 {
		deficit = 0
	}

	// inflation[i] multiplies the disk cost of run i's I/O: spilled
	// working-set bytes are rewritten/reread WorkingSetReuse times over the
	// course of the query, normalized by its useful I/O volume. The same
	// pass counts disk consumers and CPU stages.
	consumers := e.spoilerStreams
	cpuRuns := 0
	for i, r := range e.runs {
		inflation[i] = 1
		if r.done {
			continue
		}
		if deficit > 0 && totalWS > 0 && r.spec.WorkingSetBytes > 0 {
			spill := deficit * r.spec.WorkingSetBytes / totalWS
			inflation[i] = 1 + r.spec.WorkingSetReuse*spill/r.ioBytes
		}
		switch st := r.spec.Stages[r.stageIdx]; st.Kind {
		case StageSeqIO:
			if !e.cfg.SharedScans || !e.scannedBefore(i, st.Table) {
				consumers++
			}
		case StageRandIO:
			consumers++
		case StageCPU:
			cpuRuns++
		}
	}

	share := 1.0
	if consumers > 0 {
		share = 1 / float64(consumers)
	}
	// CPU sharing (usually uncontended: cores >= MPL).
	cpuShare := 1.0
	if cpuRuns > e.cfg.Cores {
		cpuShare = float64(e.cfg.Cores) / float64(cpuRuns)
	}

	for i, r := range e.runs {
		progress[i], swap[i] = 0, 0
		if r.done {
			continue
		}
		switch r.spec.Stages[r.stageIdx].Kind {
		case StageSeqIO:
			rate := share * e.cfg.SeqBandwidth / inflation[i]
			progress[i] = rate
			swap[i] = rate * (inflation[i] - 1)
		case StageRandIO:
			rate := share * e.cfg.RandIOPS / inflation[i]
			progress[i] = rate
			swap[i] = rate * e.cfg.PageBytes * (inflation[i] - 1)
		case StageCachedIO:
			progress[i] = e.cfg.CachedBandwidth
		case StageCPU:
			// Spilled intermediate state also slows CPU phases (external
			// sort / spilled hash probes), scaled by SwapCPUWeight.
			infl := 1 + e.cfg.SwapCPUWeight*(inflation[i]-1)
			progress[i] = cpuShare / infl
		}
	}
	return progress, swap
}

// scannedBefore reports whether a live run before index i is in a
// sequential scan of table.
func (e *Engine) scannedBefore(i int, table string) bool {
	for _, r := range e.runs[:i] {
		if st := r.spec.Stages[r.stageIdx]; !r.done && st.Kind == StageSeqIO && st.Table == table {
			return true
		}
	}
	return false
}

// step advances the simulation to the next stage-completion event and
// returns the runs that finished entirely during the step. It returns
// ok=false when no active runs remain or no run can make progress. The
// returned slice and its runs belong to the engine and are valid only
// until the next step.
func (e *Engine) step() (completed []*run, ok bool) {
	return e.stepUntil(-1)
}

// compact drops completed runs from the active list to keep rate
// computation proportional to the live population. The dropped runs stay
// reachable from finished until the next step recycles them.
func (e *Engine) compact() {
	live := e.runs[:0]
	for _, r := range e.runs {
		if !r.done {
			live = append(live, r)
		}
	}
	e.runs = live
}
