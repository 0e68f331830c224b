package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"contender/internal/core"
	"contender/internal/lhs"
	"contender/internal/obs"
	"contender/internal/resilience"
)

// The campaign engine: the paper's whole sampling campaign — fact-scan
// times, isolated and spoiler runs per template, exhaustive pairs at
// MPL 2, LHS designs above — as ONE keyed task plan, one worker pool, one
// retry/quarantine path, one write-through checkpoint and one task-level
// fault injector. Env and Recollect run it against the simulator;
// CollectFrom runs it against any System.
//
// Rules (see DESIGN.md §6–7):
//
//   - The task is the unit of retry, record and resume. Keys are stable
//     strings — scan/<table>, template/<id>, mix/<mpl>/<designIdx> — and
//     name the task in errors, the fault injector and the checkpoint.
//   - The backend hands each task attempt its System. Env gives every
//     attempt a simulator engine reseeded with sim.DeriveSeed(seed, key),
//     which cannot be told apart from a new engine, so a task's values
//     depend only on its key and a retry reproduces exactly what an
//     untroubled attempt would have measured, at any pool width.
//     CollectFrom gives every attempt the caller's System at pool width
//     1, so a stateful backend sees the plan order.
//   - Mix tasks start only after every scan and template task resolved; a
//     mix containing a quarantined template is dropped, never measured.
//     Designs are drawn over the full template list, so quarantine drops
//     mixes without reshuffling the survivors.
//   - Every value is validated, fresh or replayed from the checkpoint.
//   - Results land in per-task slots and are merged in plan order, so
//     even floating-point accumulations are identical at any pool width.

// taskKind distinguishes the three kinds of sampling task.
type taskKind int

const (
	scanTask taskKind = iota
	templateTask
	mixTask
)

// task is one keyed unit of the campaign plan.
type task struct {
	key   string
	kind  taskKind
	table string       // scanTask
	meta  TemplateMeta // templateTask
	mpl   int          // mixTask
	mix   lhs.Mix      // mixTask: template IDs
}

// entry is one task's raw result — exactly what the checkpoint records
// and a resume replays. Derived values (averages, observations, time
// tallies) are recomputed from it by the same merge code either way.
type entry struct {
	Scan     float64       `json:"scan,omitempty"`
	Isolated []Measurement `json:"isolated,omitempty"`
	Spoilers []Measurement `json:"spoilers,omitempty"` // in Options.MPLs order
	Mix      lhs.Mix       `json:"mix,omitempty"`
	Lats     []float64     `json:"lats,omitempty"`
	Seconds  float64       `json:"seconds,omitempty"` // virtual mix duration
}

// taskStatus is the resolution of one plan slot.
type taskStatus uint8

const (
	pending taskStatus = iota
	measured
	quarantined
)

// campaign is one run of the engine over a plan.
type campaign struct {
	opts Options
	plan []task
	// backend returns the System a task attempt measures through and
	// the done func the attempt calls once it has finished with it.
	backend func(key string) (sys System, done func())
	// host identifies the measured host in the fingerprint ("" when the
	// System owns its host).
	host string

	entries []entry
	lats    [][]float64 // per mix task, its slots in one slab
	status  []taskStatus
	reasons []string

	ckpt     *checkpoint
	injector *resilience.Injector

	mu     sync.Mutex // guards report.Retries across pool workers
	report CollectionReport
}

// planTasks lays out the keyed plan in canonical order: scans, templates,
// then each MPL's mixes in design order.
func planTasks(opts Options, templates []TemplateMeta, tables []string) []task {
	designs := make([][]lhs.Mix, len(opts.MPLs))
	n := len(tables) + len(templates)
	for j, mpl := range opts.MPLs {
		designs[j] = lhs.MixesFor(len(templates), mpl, opts.LHSRuns, opts.Seed+int64(mpl))
		n += len(designs[j])
	}
	plan := make([]task, 0, n)
	for _, table := range tables {
		plan = append(plan, task{key: "scan/" + table, kind: scanTask, table: table})
	}
	ids := make([]int, len(templates))
	for i, meta := range templates {
		ids[i] = meta.ID
		plan = append(plan, task{key: fmt.Sprintf("template/%d", meta.ID), kind: templateTask, meta: meta})
	}
	for j, mpl := range opts.MPLs {
		for i, mix := range designs[j] {
			idMix := make(lhs.Mix, len(mix))
			for k, idx := range mix {
				idMix[k] = ids[idx]
			}
			plan = append(plan, task{key: fmt.Sprintf("mix/%d/%d", mpl, i), kind: mixTask, mpl: mpl, mix: idMix})
		}
	}
	return plan
}

// CollectFrom runs the campaign against an external System. Every task
// attempt measures through sys, one task at a time, so the backend sees
// the scans, then each template's isolated and spoiler runs, then the
// mixes in design order. Options.Workers is ignored.
func CollectFrom(ctx context.Context, sys System, opts Options) (*Campaign, error) {
	opts = opts.withDefaults()
	opts.Workers = 1
	templates := sys.Templates()
	if len(templates) < 2 {
		return nil, resilience.Permanent(fmt.Errorf("experiments: need at least 2 templates, have %d", len(templates)))
	}
	c := &campaign{
		opts:    opts,
		plan:    planTasks(opts, templates, sys.FactTables()),
		backend: func(string) (System, func()) { return sys, func() {} },
	}
	return c.run(ctx)
}

// run executes the plan inside a train.campaign span: replay the
// checkpoint, measure the scans and templates, then the mixes whose
// templates all survived, and merge.
func (c *campaign) run(ctx context.Context) (*Campaign, error) {
	o := c.opts.Observer
	if o == nil {
		return c.collect(ctx)
	}
	obs.Emit(o, obs.Event{Kind: obs.SpanBegin, Span: obs.SpanTrainCampaign})
	start := time.Now() //contender:allow nodeterminism -- campaign span duration feeds observability only, never a canonical artifact
	out, err := c.collect(ctx)
	end := obs.Event{Kind: obs.SpanEnd, Span: obs.SpanTrainCampaign, Err: obs.ErrLabel(err),
		Dur: time.Since(start)} //contender:allow nodeterminism -- campaign span duration feeds observability only, never a canonical artifact
	if out != nil {
		end.Value = float64(out.Resilience.TrainedTemplates)
	}
	obs.Emit(o, end)
	return out, err
}

func (c *campaign) collect(ctx context.Context) (*Campaign, error) {
	c.opts.Retry = observedRetry(c.opts.Retry, c.opts.Observer)
	c.entries = make([]entry, len(c.plan))
	c.status = make([]taskStatus, len(c.plan))
	c.reasons = make([]string, len(c.plan))
	// Mix latencies live until the merge. Kept in one slab rather than a
	// small slice per mix allocated among the simulator's garbage, they
	// pin no heap spans (about 1 MB of peak RSS on the full campaign).
	slots := 0
	for _, t := range c.plan {
		slots += len(t.mix)
	}
	slab := make([]float64, slots)
	c.lats = make([][]float64, len(c.plan))
	for i, t := range c.plan {
		c.lats[i], slab = slab[:len(t.mix):len(t.mix)], slab[len(t.mix):]
	}
	if c.opts.Faults != nil {
		c.injector = resilience.NewInjector(*c.opts.Faults)
	}
	if c.opts.CheckpointPath != "" {
		ck, err := loadCheckpoint(c.opts.CheckpointPath, c.fingerprint())
		if err != nil {
			return nil, err
		}
		c.ckpt = ck
		if err := c.replay(); err != nil {
			return nil, err
		}
	}

	if err := c.runPool(ctx, func(t task) bool { return t.kind != mixTask }); err != nil {
		return nil, err
	}
	bad := c.badTemplates()
	total := 0
	for _, t := range c.plan {
		if t.kind == templateTask {
			total++
		}
	}
	if len(bad) > 0 && total-len(bad) < 2 {
		return nil, resilience.Permanent(fmt.Errorf("experiments: only %d of %d templates survived sampling (need at least 2, %d tasks quarantined)",
			total-len(bad), total, len(c.report.Quarantined)))
	}
	if err := c.runPool(ctx, func(t task) bool { return t.kind == mixTask && !touches(t.mix, bad) }); err != nil {
		return nil, err
	}
	if c.ckpt != nil {
		c.ckpt.discard()
	}
	return c.merge(), nil
}

// badTemplates is the set of quarantined template IDs.
func (c *campaign) badTemplates() map[int]bool {
	bad := map[int]bool{}
	for i, t := range c.plan {
		if t.kind == templateTask && c.status[i] == quarantined {
			bad[t.meta.ID] = true
		}
	}
	return bad
}

// touches reports whether the mix contains any of the given templates.
func touches(mix lhs.Mix, ids map[int]bool) bool {
	for _, id := range mix {
		if ids[id] {
			return true
		}
	}
	return false
}

// emit forwards an event to the configured observer (no-op without one).
func (c *campaign) emit(ev obs.Event) { obs.Emit(c.opts.Observer, ev) }

// poolLabel tags collection goroutines in CPU/goroutine profiles, so a
// pprof of a busy process attributes sampling work to the campaign pool
// (`pprof -tagfocus contender_pool=env-collect`).
const poolLabel = "contender_pool"

// runPool measures every pending task the filter selects,
// min(Workers, tasks) wide; width 1 runs the same worker, so it measures
// the tasks in plan order. Workers claim the next task themselves, from
// one atomic cursor over the list, and never wait on each other between
// tasks. Fatal errors win and stop the pool from starting further work:
// a worker starts a task only if no fatal error was recorded when it
// claimed it. Quarantined tasks are reported in plan order whatever the
// scheduling.
func (c *campaign) runPool(ctx context.Context, in func(task) bool) error {
	var todo []int
	for i, t := range c.plan {
		if c.status[i] == pending && in(t) {
			todo = append(todo, i)
		}
	}
	var (
		next     atomic.Int64 // cursor: the next index of todo to claim
		stopped  atomic.Bool  // set once, by the worker that records fatalErr
		fatalErr error
	)
	worker := func(ctx context.Context) {
		for {
			n := next.Add(1) - 1
			if n >= int64(len(todo)) || stopped.Load() {
				return
			}
			i := todo[n]
			if err := c.runTask(ctx, i); err != nil {
				if stopped.CompareAndSwap(false, true) {
					fatalErr = fmt.Errorf("experiments: task %s: %w", c.plan[i].key, err)
				}
				return
			}
			// One scheduling point per task: workers that ran back to
			// back without one starved the collector's background mark
			// worker, and the heap overshot its goal.
			runtime.Gosched()
		}
	}
	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := min(workers, len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels(poolLabel, "env-collect"), worker)
		}()
	}
	wg.Wait()
	if fatalErr != nil {
		return fatalErr
	}
	for _, i := range todo {
		if c.status[i] == quarantined {
			c.report.Quarantined = append(c.report.Quarantined, TaskFailure{Key: c.plan[i].key, Reason: c.reasons[i]})
		}
	}
	return nil
}

// errTaskCheckpoint marks a failed checkpoint write — always fatal, even
// under a retry policy, because continuing would break the resume
// guarantee. Classified permanent so taxonomy-aware callers agree.
var errTaskCheckpoint = resilience.Permanent(errors.New("checkpoint write failed"))

// fatal reports whether a task error must abort the whole campaign:
// cancellation and checkpoint-write failures always do; without a retry
// policy every error does (fail-fast mode). Everything else is
// quarantined and the campaign degrades.
func (c *campaign) fatal(err error) bool {
	return c.opts.Retry == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errTaskCheckpoint)
}

// runTask measures task i under its span and the retry policy, then
// resolves it: recorded on success, quarantined on a non-fatal failure.
// It returns only errors that must abort the campaign.
func (c *campaign) runTask(ctx context.Context, i int) error {
	t := c.plan[i]
	attempts, err := c.observe(taskSpan[t.kind], t, func() (int, error) { return c.attempts(ctx, i) })
	if attempts > 1 {
		c.mu.Lock()
		c.report.Retries += attempts - 1
		c.mu.Unlock()
	}
	if err != nil {
		if c.fatal(err) {
			return err
		}
		c.status[i], c.reasons[i] = quarantined, err.Error()
		c.emit(obs.Event{Kind: obs.Point, Span: obs.PointTrainQuarantine, Key: t.key, Err: obs.ErrLabel(err)})
		return c.resolve(t, func(s *checkpointState) {
			s.Failed = append(s.Failed, TaskFailure{Key: t.key, Reason: err.Error()})
		})
	}
	c.status[i] = measured
	return c.resolve(t, func(s *checkpointState) { s.Tasks[t.key] = c.entries[i] })
}

// resolve records a resolved task in the checkpoint and fires the
// completion hook.
func (c *campaign) resolve(t task, record func(*checkpointState)) error {
	if c.ckpt != nil {
		if err := c.ckpt.record(record); err != nil {
			return fmt.Errorf("%w: %w", errTaskCheckpoint, err)
		}
		c.emit(obs.Event{Kind: obs.Point, Span: obs.PointTrainCheckpoint, Key: t.key})
	}
	if c.opts.onTaskDone != nil {
		c.opts.onTaskDone(t.key)
	}
	return nil
}

// attempts runs task i under the retry policy (or once, in fail-fast
// mode). Each attempt first consults the fault injector, so a faulted
// attempt never reaches the backend, then measures from the task's first
// measurement on the System the backend hands it.
func (c *campaign) attempts(ctx context.Context, i int) (int, error) {
	t := c.plan[i]
	attempt := func() error {
		if c.injector != nil {
			if err := c.injector.Decide(t.key).Err(t.key); err != nil {
				return err
			}
		}
		sys, done := c.backend(t.key)
		e, err := c.measure(ctx, t, sys)
		if t.kind == mixTask && err == nil {
			e.Lats = append(c.lats[i][:0], e.Lats...)
		}
		done()
		c.entries[i] = e
		return err
	}
	if c.opts.Retry == nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 1, attempt()
	}
	return c.opts.Retry.Do(ctx, t.key, attempt)
}

// taskSpan maps a task kind to its span name.
var taskSpan = [...]string{
	scanTask:     obs.SpanTrainScan,
	templateTask: obs.SpanTrainProfile,
	mixTask:      obs.SpanTrainMix,
}

// observe wraps fn in a begin/end pair of the named span. The nil check
// precedes the clock read, so unobserved campaigns pay nothing.
func (c *campaign) observe(span string, t task, fn func() (int, error)) (int, error) {
	o := c.opts.Observer
	if o == nil {
		return fn()
	}
	obs.Emit(o, obs.Event{Kind: obs.SpanBegin, Span: span, Key: t.key, Template: t.meta.ID})
	start := time.Now() //contender:allow nodeterminism -- task span duration feeds observability only, never a canonical artifact
	attempts, err := fn()
	obs.Emit(o, obs.Event{
		Kind:     obs.SpanEnd,
		Span:     span,
		Key:      t.key,
		Template: t.meta.ID,
		Attempt:  attempts,
		Dur:      time.Since(start), //contender:allow nodeterminism -- task span duration feeds observability only, never a canonical artifact
		Err:      obs.ErrLabel(err),
	})
	return attempts, err
}

// measure performs one attempt of a task on sys, validating every value
// as it arrives so a corrupt one fails the attempt at once.
func (c *campaign) measure(ctx context.Context, t task, sys System) (entry, error) {
	switch t.kind {
	case scanTask:
		v, err := sys.ScanSeconds(t.table)
		if err == nil {
			err = checkSeconds("scan of "+t.table, v)
		}
		if err != nil {
			return entry{}, fmt.Errorf("measuring scan of %s: %w", t.table, err)
		}
		return entry{Scan: v}, nil
	case templateTask:
		return c.profile(ctx, t, sys)
	}
	var e entry
	var err error
	if tm, ok := sys.(timedMixer); ok {
		e.Lats, e.Seconds, err = tm.runMixTimed(t.mix, c.opts.SteadySamples)
	} else {
		e.Lats, err = sys.RunMix(t.mix, c.opts.SteadySamples)
	}
	if err == nil {
		e.Mix = t.mix
		err = checkMix(t, e)
	}
	if err != nil {
		return entry{}, fmt.Errorf("steady state %v: %w", t.mix, err)
	}
	return e, nil
}

// profile measures one template's isolated runs, then its spoiler run at
// every MPL, each in its own span. The context is honoured between
// measurements.
func (c *campaign) profile(ctx context.Context, t task, sys System) (entry, error) {
	id := t.meta.ID
	var e entry
	run := func(span, key string, call func() (Measurement, error)) (Measurement, error) {
		var m Measurement
		if err := ctx.Err(); err != nil {
			return m, err
		}
		_, err := c.observe(span, task{key: key, meta: t.meta}, func() (int, error) {
			var err error
			if m, err = call(); err == nil {
				err = checkMeasurement(m)
			}
			return 1, err
		})
		return m, err
	}
	for r := 0; r < c.opts.IsolatedRuns; r++ {
		m, err := run(obs.SpanTrainIsolated, fmt.Sprintf("isolated/%d/%d", id, r),
			func() (Measurement, error) { return sys.RunIsolated(id) })
		if err != nil {
			return entry{}, fmt.Errorf("isolated run of T%d: %w", id, err)
		}
		e.Isolated = append(e.Isolated, m)
	}
	for _, mpl := range c.opts.MPLs {
		m, err := run(obs.SpanTrainSpoiler, fmt.Sprintf("spoiler/%d/%d", id, mpl),
			func() (Measurement, error) { return sys.RunSpoiler(id, mpl) })
		if err != nil {
			return entry{}, fmt.Errorf("spoiler run of T%d at MPL %d: %w", id, mpl, err)
		}
		e.Spoilers = append(e.Spoilers, m)
	}
	return e, nil
}

// checkSeconds rejects a duration no real execution produces; the corrupt
// classification makes the retry loop discard and resample it.
func checkSeconds(what string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return resilience.Corruptf("%s took %g seconds", what, v)
	}
	return nil
}

// checkMeasurement rejects an isolated or spoiler run no real execution
// produces.
func checkMeasurement(m Measurement) error {
	if err := checkSeconds("query", m.LatencySeconds); err != nil {
		return err
	}
	if m.IOSeconds < 0 || math.IsNaN(m.IOSeconds) || math.IsInf(m.IOSeconds, 0) {
		return resilience.Corruptf("io time %g seconds", m.IOSeconds)
	}
	return nil
}

// checkMix rejects a mix result that is not the design's mix with one
// positive finite latency per slot.
func checkMix(t task, e entry) error {
	if !slices.Equal(e.Mix, t.mix) {
		return resilience.Corruptf("mix %v is not the design's %v", e.Mix, t.mix)
	}
	if len(e.Lats) != len(t.mix) {
		return resilience.Corruptf("%d latencies for a %d-query mix", len(e.Lats), len(t.mix))
	}
	for slot, l := range e.Lats {
		if !(l > 0) || math.IsInf(l, 0) {
			return resilience.Corruptf("slot %d took %g seconds", slot, l)
		}
	}
	if e.Seconds < 0 || math.IsNaN(e.Seconds) || math.IsInf(e.Seconds, 0) {
		return resilience.Corruptf("mix duration %g seconds", e.Seconds)
	}
	return nil
}

// validate applies to a replayed entry the checks a fresh measurement of
// the task passes.
func (c *campaign) validate(t task, e entry) error {
	switch t.kind {
	case scanTask:
		return checkSeconds("scan of "+t.table, e.Scan)
	case templateTask:
		if len(e.Isolated) != c.opts.IsolatedRuns || len(e.Spoilers) != len(c.opts.MPLs) {
			return resilience.Corruptf("%d isolated and %d spoiler runs, want %d and %d",
				len(e.Isolated), len(e.Spoilers), c.opts.IsolatedRuns, len(c.opts.MPLs))
		}
		for _, m := range append(slices.Clip(e.Isolated), e.Spoilers...) {
			if err := checkMeasurement(m); err != nil {
				return err
			}
		}
		return nil
	}
	return checkMix(t, e)
}

// replay restores the checkpoint: recorded quarantines first, then every
// recorded task in plan order, each validated like a fresh measurement.
func (c *campaign) replay() error {
	slot := make(map[string]int, len(c.plan))
	for i, t := range c.plan {
		slot[t.key] = i
	}
	for _, f := range c.ckpt.state.Failed {
		i, ok := slot[f.Key]
		if !ok || c.status[i] != pending {
			return c.ckpt.refuse(f.Key, resilience.Corruptf("unknown or repeated quarantined task"))
		}
		c.status[i] = quarantined
		c.report.Quarantined = append(c.report.Quarantined, f)
		c.emit(obs.Event{Kind: obs.Point, Span: obs.PointTrainQuarantine, Key: f.Key, Err: f.Reason})
	}
	// Plan order, with keys the plan does not know first, so the refusal
	// names the same key on every run.
	keys := make([]string, 0, len(c.ckpt.state.Tasks))
	for key := range c.ckpt.state.Tasks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	pos := func(key string) int {
		if i, ok := slot[key]; ok {
			return i
		}
		return -1
	}
	sort.SliceStable(keys, func(a, b int) bool { return pos(keys[a]) < pos(keys[b]) })
	for _, key := range keys {
		i := pos(key)
		if i < 0 || c.status[i] != pending {
			return c.ckpt.refuse(key, resilience.Corruptf("unknown or already quarantined task"))
		}
		e := c.ckpt.state.Tasks[key]
		if err := c.validate(c.plan[i], e); err != nil {
			return c.ckpt.refuse(key, err)
		}
		c.entries[i], c.status[i] = e, measured
		c.report.Resumed++
		c.emit(obs.Event{Kind: obs.Point, Span: obs.PointTrainResume, Key: key})
	}
	return nil
}

// Campaign is what a sampling campaign collected: the knowledge base, the
// steady-state samples, the virtual time spent, and the resilience report.
type Campaign struct {
	Know *core.Knowledge
	// Samples maps MPL → sampled mixes, in design order.
	Samples map[int][]MixSample
	// SimulatedSeconds tallies the virtual time each collection phase
	// consumed, for the Section 5.4 sampling-cost accounting (Mixes stays
	// zero against a backend that reports no virtual durations).
	SimulatedSeconds struct {
		Isolated float64
		Spoiler  float64
		Mixes    float64
	}
	// Resilience reports how collection went under Options.Retry/Faults/
	// CheckpointPath: retries spent, tasks resumed, coverage lost.
	Resilience CollectionReport

	// obs holds every mix observation once, in plan order (MPL-major,
	// then design order); each MixSample.Obs, each obsByMPL window and
	// AllObservations are read-only windows of it, and the Concurrent
	// lists are windows of one []int.
	obs      []core.Observation
	obsByMPL map[int][]core.Observation
	// byPrimary is built on the first ObservationsFor call. It is a
	// pointer so that copying a Campaign (Env embeds one) shares it.
	byPrimary *primaryViews
}

// merge assembles the campaign's outcome from the result slots, in plan
// order.
func (c *campaign) merge() *Campaign {
	out := &Campaign{
		Samples:    make(map[int][]MixSample, len(c.opts.MPLs)),
		Resilience: c.report,
		obsByMPL:   make(map[int][]core.Observation, len(c.opts.MPLs)),
		byPrimary:  &primaryViews{},
	}
	if c.injector != nil {
		stats := c.injector.Stats()
		out.Resilience.FaultStats = &stats
	}
	bad := c.badTemplates()
	kept := func(i int) bool {
		t := c.plan[i]
		return c.status[i] == measured && !(t.kind == mixTask && touches(t.mix, bad))
	}
	// Size the observation slab, the Concurrent lists and every
	// Samples[mpl] from the plan before filling them.
	var nobs, nconc int
	mixes := make(map[int]int, len(c.opts.MPLs))
	for i, t := range c.plan {
		if t.kind == mixTask && kept(i) {
			nobs += len(t.mix)
			nconc += len(t.mix) * (len(t.mix) - 1)
			mixes[t.mpl]++
		}
	}
	for mpl, n := range mixes {
		out.Samples[mpl] = make([]MixSample, 0, n)
	}
	out.obs = make([]core.Observation, nobs)
	free, conc := out.obs, make([]int, nconc)
	scans := make(map[string]float64)
	var templates []core.TemplateStats
	for i, t := range c.plan {
		if t.kind == templateTask {
			out.Resilience.TotalTemplates++
		}
		if t.kind == mixTask {
			out.Resilience.PlannedMixes++
		}
		if !kept(i) {
			if t.kind == mixTask {
				out.Resilience.DroppedMixes++
			}
			continue
		}
		e := c.entries[i]
		switch t.kind {
		case scanTask:
			scans[t.table] = e.Scan
		case templateTask:
			ts, isolated, spoiler := c.templateStats(t.meta, e)
			templates = append(templates, ts)
			out.Resilience.TrainedTemplates++
			out.SimulatedSeconds.Isolated += isolated
			out.SimulatedSeconds.Spoiler += spoiler
		case mixTask:
			n := len(e.Mix)
			sample := MixSample{Mix: e.Mix, Obs: free[:n:n]}
			for slot, id := range e.Mix {
				sample.Obs[slot] = core.Observation{
					Primary:    id,
					Concurrent: e.Mix.AppendWithoutOne(conc[:0:n-1], id),
					Latency:    e.Lats[slot],
				}
				conc = conc[n-1:]
			}
			free = free[n:]
			// planTasks lays each MPL's mixes out together, so the MPL's
			// observations so far are one window ending here.
			end := len(out.obs) - len(free)
			start := end - n - len(out.obsByMPL[t.mpl])
			out.obsByMPL[t.mpl] = out.obs[start:end:end]
			out.Samples[t.mpl] = append(out.Samples[t.mpl], sample)
			out.SimulatedSeconds.Mixes += e.Seconds
		}
	}
	out.Know = core.NewKnowledge(scans, templates)
	return out
}

// templateStats averages a template's raw runs into the statistics
// Contender's models consume, and sums the virtual seconds its isolated
// and spoiler runs took.
func (c *campaign) templateStats(meta TemplateMeta, e entry) (ts core.TemplateStats, isolated, spoiler float64) {
	var io float64
	for _, m := range e.Isolated {
		isolated += m.LatencySeconds
		io += m.IOSeconds
	}
	ts = core.TemplateStats{
		ID:              meta.ID,
		IsolatedLatency: isolated / float64(len(e.Isolated)),
		IOFraction:      io / isolated,
		WorkingSetBytes: meta.WorkingSetBytes,
		SpoilerLatency:  make(map[int]float64, len(c.opts.MPLs)),
		Scans:           make(map[string]bool, len(meta.FactScans)),
		PlanSteps:       meta.PlanSteps,
		RecordsAccessed: meta.RecordsAccessed,
	}
	for _, f := range meta.FactScans {
		ts.Scans[f] = true
	}
	for j, mpl := range c.opts.MPLs {
		ts.SpoilerLatency[mpl] = e.Spoilers[j].LatencySeconds
		spoiler += e.Spoilers[j].LatencySeconds
	}
	return ts, isolated, spoiler
}

// primaryViews is the per-primary view behind ObservationsFor:
// byMPL[mpl][id] holds the observations at mpl whose primary is id.
type primaryViews struct {
	once  sync.Once
	byMPL map[int]map[int][]core.Observation
}

// primaryViews builds the per-primary view on first use. A counting pass
// sizes every list first; the lists are capacity-capped windows of one
// backing array per MPL. The serving path never reads this view; the
// experiment drivers and the lifecycle's holdouts do.
func (c *Campaign) primaryViews() map[int]map[int][]core.Observation {
	v := c.byPrimary
	v.once.Do(func() {
		v.byMPL = make(map[int]map[int][]core.Observation, len(c.obsByMPL))
		for mpl, all := range c.obsByMPL {
			counts := make(map[int]int)
			for _, o := range all {
				counts[o.Primary]++
			}
			backing := make([]core.Observation, len(all))
			byPrimary := make(map[int][]core.Observation, len(counts))
			for _, o := range all {
				list, ok := byPrimary[o.Primary]
				if !ok {
					n := counts[o.Primary]
					list, backing = backing[:0:n], backing[n:]
				}
				byPrimary[o.Primary] = append(list, o)
			}
			v.byMPL[mpl] = byPrimary
		}
	})
	return v.byMPL
}

// Observations returns all observations at an MPL, in sample order. The
// slice and its Concurrent lists are shared with the campaign (Train
// reads the same storage) and are read-only.
func (c *Campaign) Observations(mpl int) []core.Observation { return c.obsByMPL[mpl] }

// ObservationsFor returns the observations at mpl whose primary is the
// given template, in sample order, from a primary-keyed view built on the
// first call (the experiment drivers call this once per template —
// re-flattening every sample per call made those loops quadratic). The
// slice and its Concurrent lists are shared and read-only.
func (c *Campaign) ObservationsFor(mpl, primary int) []core.Observation {
	return c.primaryViews()[mpl][primary]
}

// AllObservations returns the observations across all sampled MPLs, in
// the campaign's MPL order and sample order. The slice and its Concurrent
// lists are the campaign's own storage and are read-only.
func (c *Campaign) AllObservations() []core.Observation { return c.obs }

// observedRetry chains a train.retry emission onto the policy's OnRetry
// hook, copying the policy so the caller's value is never mutated. The
// retry schedule itself (delays, jitter, attempt budget) is unchanged.
func observedRetry(p *resilience.RetryPolicy, o obs.Observer) *resilience.RetryPolicy {
	if p == nil || o == nil {
		return p
	}
	rp := *p
	prev := rp.OnRetry
	rp.OnRetry = func(site string, retry int, delay time.Duration, err error) {
		if prev != nil {
			prev(site, retry, delay, err)
		}
		obs.Emit(o, obs.Event{
			Kind:    obs.Point,
			Span:    obs.PointTrainRetry,
			Key:     site,
			Attempt: retry,
			Value:   delay.Seconds(),
			Err:     obs.ErrLabel(err),
		})
	}
	return &rp
}

// Checkpoints. Every resolved task is flushed to the checkpoint file as
// it resolves (atomically: temp file + rename), keyed by its task key; a
// resumed campaign replays the recorded entries through the same
// validation and merge as fresh ones, so it is byte-identical to an
// uninterrupted campaign. A task interrupted mid-flight was never
// recorded and is re-measured from its first measurement.

// checkpointVersion guards against loading incompatible files. Version 1
// was the pair of per-engine formats this one replaced.
const checkpointVersion = 2

type checkpointState struct {
	Version     int              `json:"version"`
	Fingerprint string           `json:"fingerprint"`
	Tasks       map[string]entry `json:"tasks,omitempty"`
	Failed      []TaskFailure    `json:"failed,omitempty"`
}

// checkpoint is the write-through checkpoint file. record is safe for
// concurrent use by pool workers.
type checkpoint struct {
	path string

	mu    sync.Mutex
	state checkpointState
}

// loadCheckpoint opens (or initializes) the checkpoint at path. An
// existing file must carry the current version and the same campaign
// fingerprint; resuming under a different configuration would silently
// mix incompatible designs. Every refusal is classified permanent.
func loadCheckpoint(path, fingerprint string) (*checkpoint, error) {
	c := &checkpoint{path: path, state: checkpointState{
		Version:     checkpointVersion,
		Fingerprint: fingerprint,
		Tasks:       map[string]entry{},
	}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, resilience.Permanent(fmt.Errorf("experiments: reading checkpoint %s: %w", path, err))
	}
	var loaded checkpointState
	if err := json.Unmarshal(data, &loaded); err != nil {
		return nil, resilience.Permanent(fmt.Errorf("experiments: corrupt checkpoint %s: %w", path, err))
	}
	if loaded.Version != checkpointVersion {
		return nil, resilience.Permanent(fmt.Errorf("experiments: checkpoint %s has version %d (want %d)", path, loaded.Version, checkpointVersion))
	}
	if loaded.Fingerprint != fingerprint {
		return nil, resilience.Permanent(fmt.Errorf("experiments: checkpoint %s was taken under a different configuration or workload (fingerprint %s, current campaign %s) — delete it or restore the original options",
			path, loaded.Fingerprint, fingerprint))
	}
	if loaded.Tasks == nil {
		loaded.Tasks = map[string]entry{}
	}
	c.state = loaded
	return c, nil
}

// refuse classifies a bad checkpoint entry, naming the file and the task.
func (c *checkpoint) refuse(key string, err error) error {
	return resilience.Permanent(fmt.Errorf("experiments: checkpoint %s: task %s: %w", c.path, key, err))
}

// record applies a mutation to the checkpoint state and flushes it
// atomically (temp file + rename).
func (c *checkpoint) record(fn func(*checkpointState)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(&c.state)
	data, err := json.MarshalIndent(&c.state, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("committing checkpoint: %w", err)
	}
	return nil
}

// discard removes the checkpoint file after the campaign completes.
func (c *checkpoint) discard() {
	os.Remove(c.path)
}

// fingerprint hashes everything that shapes the campaign's measurements
// — sampling knobs, seed, host identity and the keyed plan — into a short
// hex string. Workers is deliberately excluded (every pool width collects
// identical data), and so are Retry and Faults (a retried task re-measures
// its key, and an injected fault fails an attempt before the backend is
// consulted). The observer stays out too: observation never changes what
// is measured.
func (c *campaign) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|mpls=%v|lhs=%d|steady=%d|iso=%d|seed=%d|host=%s|tasks=",
		checkpointVersion, c.opts.MPLs, c.opts.LHSRuns, c.opts.SteadySamples, c.opts.IsolatedRuns, c.opts.Seed, c.host)
	for _, t := range c.plan {
		fmt.Fprintf(h, "%s,", t.key)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
