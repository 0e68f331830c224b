// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) plus the quantitative claims embedded in the text.
// Each experiment is a named driver that runs against a shared Env — the
// profiled workload plus sampled steady-state mixes — and emits a rendered
// table along with machine-readable metrics for EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"contender/internal/core"
	"contender/internal/lhs"
	"contender/internal/obs"
	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// Options controls how much sampling the environment performs. The defaults
// reproduce the paper's protocol (exhaustive pairs at MPL 2, four disjoint
// LHS designs at MPLs 3–5, five steady-state samples per stream).
type Options struct {
	// MPLs are the multiprogramming levels to sample. Default 2–5.
	MPLs []int
	// LHSRuns is the number of disjoint LHS designs per MPL ≥ 3. Default 4.
	LHSRuns int
	// SteadySamples is the per-stream sample count in steady state.
	// Default 5.
	SteadySamples int
	// IsolatedRuns is how many isolated executions are averaged for l_min
	// and p_t. Default 3.
	IsolatedRuns int
	// Seed drives the simulator and all sampling designs.
	Seed int64
	// Config overrides the host configuration (zero value = default host).
	Config *sim.Config
	// Workers bounds the sampling worker pool (see campaign.go). 0 uses
	// GOMAXPROCS. The collected data is identical for every value.
	// CollectFrom always runs one task at a time.
	Workers int
	// Retry, when set, wraps every sampling task in the policy's
	// retry/backoff loop and switches collection from fail-fast to
	// quarantine-and-degrade: a task whose retry budget is exhausted (or
	// that fails permanently) is dropped, collection continues on the rest,
	// and the loss is reported in Campaign.Resilience. A retried task is
	// re-measured from its first measurement; on the simulator it reruns
	// on an engine reseeded with the same derived seed, so retries never
	// change the collected data.
	Retry *resilience.RetryPolicy
	// Faults, when set, injects a seed-deterministic fault schedule into
	// the sampling tasks, decided per task key and attempt — the chaos
	// harness behind the fault-injection tests and the ext-chaos
	// experiment. A faulted attempt fails or stalls before the backend is
	// consulted; it never corrupts recorded values.
	Faults *resilience.FaultConfig
	// CheckpointPath, when non-empty, persists every completed task to this
	// file (atomically, as it completes) and resumes an interrupted
	// campaign from it on the next run with identical options. A resumed
	// campaign collects byte-identical data. The file is removed when the
	// campaign completes.
	CheckpointPath string
	// Observer, when set, receives a structured event stream for the whole
	// campaign: a train.campaign span wrapping the build, a train.scan/
	// train.profile/train.mix span per task, train.isolated/train.spoiler
	// spans per measurement inside a profile, and train.retry/
	// train.quarantine/train.checkpoint/train.resume points from the
	// resilience machinery. Observation never changes what is collected —
	// the observer is outside the determinism boundary (it does not enter
	// the checkpoint fingerprint), and a panicking observer is isolated at
	// the emit site. With Workers == 1 the event order itself is
	// deterministic; wider pools emit a deterministic event multiset in
	// scheduling order.
	Observer obs.Observer
	// onTaskDone, when set (in-package tests only), fires after every task
	// resolves — completed or quarantined. It may be called concurrently
	// from pool workers.
	onTaskDone func(key string)
}

func (o Options) withDefaults() Options {
	if len(o.MPLs) == 0 {
		o.MPLs = []int{2, 3, 4, 5}
	}
	// Each MPL is sampled once: a repeat would plan its task keys twice,
	// and the campaign lays each MPL's observations out in one run.
	mpls := make([]int, 0, len(o.MPLs))
	for _, mpl := range o.MPLs {
		if !slices.Contains(mpls, mpl) {
			mpls = append(mpls, mpl)
		}
	}
	o.MPLs = mpls
	if o.LHSRuns <= 0 {
		o.LHSRuns = 4
	}
	if o.SteadySamples <= 0 {
		o.SteadySamples = 5
	}
	if o.IsolatedRuns <= 0 {
		o.IsolatedRuns = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// MixSample is one sampled steady-state mix with the per-slot observations
// it produced.
type MixSample struct {
	Mix lhs.Mix // template IDs (not indices)
	// Obs is a window of the campaign's one copy of the observations,
	// which training reads: it is read-only.
	Obs []core.Observation
}

// TaskFailure is one sampling task the campaign terminally gave up on
// (retry budget exhausted or permanent failure).
type TaskFailure struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// CollectionReport summarizes the resilience events of an Env build: what
// was retried, what was resumed from a checkpoint, and what coverage was
// lost to quarantine.
type CollectionReport struct {
	// Retries is the total number of extra attempts spent by the policy.
	Retries int `json:"retries"`
	// Resumed is the number of tasks replayed from the checkpoint.
	Resumed int `json:"resumed"`
	// Quarantined lists terminal task failures, in task order.
	Quarantined []TaskFailure `json:"quarantined,omitempty"`
	// PlannedMixes counts the steady-state design; every planned mix is
	// either sampled or dropped. DroppedMixes counts mixes lost to
	// quarantine — failed outright or containing a quarantined template.
	PlannedMixes int `json:"planned_mixes"`
	DroppedMixes int `json:"dropped_mixes"`
	// TotalTemplates and TrainedTemplates measure workload coverage.
	TotalTemplates   int `json:"total_templates"`
	TrainedTemplates int `json:"trained_templates"`
	// FaultStats tallies what Options.Faults injected; nil without fault
	// injection.
	FaultStats *resilience.FaultStats `json:"fault_stats,omitempty"`
}

// Degraded reports whether the campaign lost any coverage.
func (r CollectionReport) Degraded() bool {
	return len(r.Quarantined) > 0 || r.DroppedMixes > 0
}

// Coverage is the fraction of the workload's templates that survived.
func (r CollectionReport) Coverage() float64 {
	if r.TotalTemplates == 0 {
		return 1
	}
	return float64(r.TrainedTemplates) / float64(r.TotalTemplates)
}

// Env is the shared experimental environment: the workload profiled in
// isolation and under the spoiler, plus steady-state mix samples at every
// MPL. Building it runs the paper's entire training-data collection on
// the campaign engine (campaign.go); on the simulator it takes seconds
// instead of weeks, and the collection fans out over a deterministic
// worker pool.
type Env struct {
	Opts     Options
	Workload *tpcds.Workload
	// Engine is the host used for post-build simulation (ground truth,
	// scheduling experiments). Training-data collection runs on engines
	// reseeded per task instead; see campaign.go.
	Engine *sim.Engine
	// Campaign holds what the collection produced: Know, Samples,
	// SimulatedSeconds and the Resilience report.
	Campaign

	// baseCfg is the host configuration before per-task reseeding.
	baseCfg sim.Config
}

// NewEnv profiles the default workload and samples mixes per opts.
func NewEnv(opts Options) (*Env, error) {
	return NewEnvWithContext(context.Background(), tpcds.NewWorkload(), opts)
}

// NewEnvContext is NewEnv with cancellation: the context is honored
// between sampling tasks, between the measurements inside a task, and
// during retry backoff. Cancelling returns ctx.Err() with all completed
// tasks already persisted when opts.CheckpointPath is set, so the
// campaign can be resumed.
func NewEnvContext(ctx context.Context, opts Options) (*Env, error) {
	return NewEnvWithContext(ctx, tpcds.NewWorkload(), opts)
}

// NewEnvWith profiles an explicit workload.
func NewEnvWith(w *tpcds.Workload, opts Options) (*Env, error) {
	return NewEnvWithContext(context.Background(), w, opts)
}

// NewEnvWithContext profiles an explicit workload with cancellation.
func NewEnvWithContext(ctx context.Context, w *tpcds.Workload, opts Options) (*Env, error) {
	opts = opts.withDefaults()
	cfg := sim.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	cfg.Seed = opts.Seed
	env := &Env{Opts: opts, Workload: w, Engine: sim.NewEngine(cfg), baseCfg: cfg}
	c, err := env.campaign(opts).run(ctx)
	if err != nil {
		return nil, err
	}
	env.Campaign = *c
	return env, nil
}

// campaign prepares the simulator campaign over the environment's
// workload: every task attempt measures on an engine reseeded with
// sim.DeriveSeed(opts.Seed, key).
func (e *Env) campaign(opts Options) *campaign {
	sys := SimSystem(e.Workload, e.Engine)
	engines := &simEngines{workload: e.Workload, cfg: e.baseCfg, seed: opts.Seed}
	return &campaign{
		opts:    opts,
		plan:    planTasks(opts, sys.Templates(), sys.FactTables()),
		host:    fmt.Sprintf("%+v", e.baseCfg),
		backend: engines.acquire,
	}
}

// simEngines is one campaign's free list of simulator adapters. An
// attempt takes one and reseeds its engine with its task's derived seed;
// a reseeded engine cannot be told apart from a new one, so reuse never
// changes a measurement, also after a failed or faulted attempt, while
// the campaign builds at most one engine per pool worker.
type simEngines struct {
	workload *tpcds.Workload
	cfg      sim.Config
	seed     int64

	mu   sync.Mutex
	free []*simSystem
}

// acquire is the campaign backend: an adapter whose engine is seeded for
// key, and the func that hands it back.
func (p *simEngines) acquire(key string) (System, func()) {
	seed := sim.DeriveSeed(p.seed, key)
	var s *simSystem
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = &simSystem{workload: p.workload, engine: sim.NewEngine(p.cfg.WithSeed(seed))}
	} else {
		s.engine.Reseed(seed)
	}
	return s, func() {
		p.mu.Lock()
		p.free = append(p.free, s)
		p.mu.Unlock()
	}
}

// TemplateIDs returns the workload's template IDs.
func (e *Env) TemplateIDs() []int { return e.Workload.IDs() }

// template is Knowledge.Template with a miss as an error wrapping
// core.ErrUnknownTemplate.
func template(k *core.Knowledge, id int) (core.TemplateStats, error) {
	t, ok := k.Template(id)
	if !ok {
		return t, fmt.Errorf("experiments: %w: T%d", core.ErrUnknownTemplate, id)
	}
	return t, nil
}

// must unwraps a knowledge-base read over IDs the experiment took from
// that same knowledge base: an error there is a bug in the experiment's
// wiring, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// MPLs returns the sampled multiprogramming levels in ascending order.
func (e *Env) MPLs() []int { return e.sortedMPLs() }

// StageProfiles derives a template's per-operator isolated footprint — the
// input of the operator-level model — from its resource profile and the
// host configuration, the way EXPLAIN ANALYZE instrumentation would on a
// real system.
func (e *Env) StageProfiles(id int) []core.StageProfile {
	spec := e.Workload.MustSpec(id)
	cfg := e.Engine.Config()
	var out []core.StageProfile
	for _, st := range spec.Stages {
		var p core.StageProfile
		switch st.Kind {
		case sim.StageSeqIO:
			p = core.StageProfile{Class: core.StageClassSeqIO, Table: st.Table,
				IsolatedSeconds: st.Amount / cfg.SeqBandwidth}
		case sim.StageRandIO:
			p = core.StageProfile{Class: core.StageClassRandIO,
				IsolatedSeconds: st.Amount / cfg.RandIOPS}
		case sim.StageCachedIO:
			p = core.StageProfile{Class: core.StageClassCached,
				IsolatedSeconds: st.Amount / cfg.CachedBandwidth}
		case sim.StageCPU:
			p = core.StageProfile{Class: core.StageClassCPU, IsolatedSeconds: st.Amount}
		}
		out = append(out, p)
	}
	return out
}

// Rand returns a deterministic RNG derived from the environment seed and a
// purpose-specific salt, so experiments are reproducible independent of
// execution order.
func (e *Env) Rand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Opts.Seed*1315423911 + salt))
}

// sortedMPLs returns the sampled MPLs ascending.
func (e *Env) sortedMPLs() []int {
	out := append([]int(nil), e.Opts.MPLs...)
	sort.Ints(out)
	return out
}
