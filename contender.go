// Package contender is a reproduction of "Contender: A Resource Modeling
// Approach for Concurrent Query Performance Prediction" (Duggan,
// Papaemmanouil, Cetintemel, Upfal — EDBT 2014): a framework that predicts
// the latency of analytical queries executing under concurrency, for both
// known and never-before-seen query templates, with only linear (or
// constant) sampling requirements.
//
// The package bundles everything the paper depends on, implemented from
// scratch on the standard library:
//
//   - a resource-contention simulator of a single database host (I/O
//     bandwidth sharing, shared fact-table scans, memory pressure, the
//     "spoiler" worst-case antagonist) standing in for the paper's
//     PostgreSQL/TPC-DS testbed;
//   - a TPC-DS-like workload of 25 query templates defined as query
//     execution plans;
//   - the Contender models: Concurrent Query Intensity (CQI), performance
//     continuums, Query Sensitivity (QS) models, spoiler-latency
//     prediction;
//   - the Section-3 machine-learning baselines (KCCA, SVM); and
//   - drivers that regenerate every table and figure of the evaluation.
//
// # Quick start
//
//	wb, err := contender.NewWorkbench(contender.QuickSampling())
//	if err != nil { ... }
//	pred, err := wb.Train()
//	if err != nil { ... }
//	// Predict TPC-DS Q71's latency when it runs with Q2 and Q22:
//	latency, err := pred.PredictKnown(71, []int{2, 22})
//
// For ad-hoc templates that were never sampled under concurrency, see
// Workbench.ProfileTemplate and Predictor.PredictNew — they reproduce the
// paper's constant-time-sampling pipeline (Figure 5).
package contender

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/obs"
	"contender/internal/qep"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// Public aliases: the facade re-exports the framework's core types so
// downstream users never need the internal packages.
type (
	// TemplateStats holds a template's isolated-execution observables —
	// all Contender needs to know about a query before predicting it.
	TemplateStats = core.TemplateStats
	// QSModel is the per-template Query Sensitivity model c = µ·r + b.
	QSModel = core.QSModel
	// Continuum is a template's [isolated, spoiler] performance range.
	Continuum = core.Continuum
	// Observation is one steady-state measurement of a primary in a mix.
	Observation = core.Observation
	// SpoilerGrowth models spoiler latency as linear in the MPL.
	SpoilerGrowth = core.SpoilerGrowth
	// Plan is a query execution plan tree.
	Plan = qep.Plan
	// PlanNode is one operator of a plan.
	PlanNode = qep.Node
	// HostConfig describes the simulated database host.
	HostConfig = sim.Config
	// QueryResult is one completed (simulated) query execution.
	QueryResult = sim.Result
)

// Plan-building helpers for ad-hoc templates, mirroring the internal
// constructors.
var (
	// Scan builds a sequential scan leaf.
	Scan = qep.Scan
	// Index builds an index (random I/O) scan leaf.
	Index = qep.Index
	// Op builds an interior plan operator.
	Op = qep.Op
)

// Plan operator kinds for use with Op.
const (
	SeqScan        = qep.SeqScan
	IndexScan      = qep.IndexScan
	HashJoin       = qep.HashJoin
	MergeJoin      = qep.MergeJoin
	NestedLoop     = qep.NestedLoop
	Sort           = qep.Sort
	HashAggregate  = qep.HashAggregate
	GroupAggregate = qep.GroupAggregate
	Materialize    = qep.Materialize
	Limit          = qep.Limit
	WindowAgg      = qep.WindowAgg
)

// ParsePlan builds a query plan from the compact textual notation, e.g.
//
//	Sort:4e6:100(HashJoin:20e6:110(Scan:item:2e4:294, Scan:catalog_sales:3e6:60))
//
// so ad-hoc templates can be described on a command line or in config
// files. See internal/qep.ParsePlan for the grammar.
var ParsePlan = qep.ParsePlan

// DefaultHost returns the default simulated host (8 GB RAM, 8 cores,
// ~100 MB/s sequential disk), comparable to the paper's testbed.
func DefaultHost() HostConfig { return sim.DefaultConfig() }

// Option configures a Workbench.
type Option func(*config)

type config struct {
	opts experiments.Options
	// quality is not part of experiments.Options: the sampling campaign
	// never consults it — only predictors trained from the workbench do.
	quality *obs.Quality
	// blame is likewise serving-side only: servers and lifecycle loops
	// built from the workbench inherit it.
	blame *obs.Blame
	// storeDir, when non-empty, roots a versioned knowledge store the
	// workbench opens (and recovers) at build time.
	storeDir string
}

// WithMPLs sets the multiprogramming levels to sample (default 2–5).
func WithMPLs(mpls ...int) Option {
	return func(c *config) { c.opts.MPLs = append([]int(nil), mpls...) }
}

// WithSeed fixes the simulation/sampling seed (default 42).
func WithSeed(seed int64) Option {
	return func(c *config) { c.opts.Seed = seed }
}

// WithHost overrides the simulated host configuration.
func WithHost(h HostConfig) Option {
	return func(c *config) { c.opts.Config = &h }
}

// WithLHSRuns sets the number of disjoint Latin Hypercube designs sampled
// per MPL ≥ 3 (default 4).
func WithLHSRuns(n int) Option {
	return func(c *config) { c.opts.LHSRuns = n }
}

// WithSteadySamples sets the per-stream sample count of each steady-state
// mix experiment (default 5, as in the paper).
func WithSteadySamples(n int) Option {
	return func(c *config) { c.opts.SteadySamples = n }
}

// WithWorkers bounds the sampling worker pool used while profiling the
// workload (default: GOMAXPROCS). Every worker count collects identical
// training data — parallelism only changes wall-clock time.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.Workers = n }
}

// WithRetry enables resilient sampling: every sampling task is retried
// under the policy, tasks whose budget is exhausted are quarantined
// (training degrades instead of aborting), and the campaign stays
// byte-identical to a fault-free one as long as faults are transient. See
// Workbench.Resilience for the outcome report.
func WithRetry(p RetryPolicy) Option {
	return func(c *config) { c.opts.Retry = &p }
}

// WithCheckpoint persists sampling progress to path after every resolved
// task. An interrupted campaign (crash, SIGINT, context cancellation)
// resumes from the checkpoint when rebuilt with the same options,
// producing a workbench byte-identical to an uninterrupted one. The file
// is removed once the campaign completes.
func WithCheckpoint(path string) Option {
	return func(c *config) { c.opts.CheckpointPath = path }
}

// WithFaults injects deterministic faults into the sampling campaign's
// task attempts — the chaos harness behind the resilience tests, exposed
// for demos and for validating retry configurations.
func WithFaults(f FaultConfig) Option {
	return func(c *config) { c.opts.Faults = &f }
}

// QuickSampling shrinks the sampling design for demos and tests: MPLs 2–3,
// two LHS runs, three steady-state samples.
func QuickSampling() Option {
	return func(c *config) {
		c.opts.MPLs = []int{2, 3}
		c.opts.LHSRuns = 2
		c.opts.SteadySamples = 3
		c.opts.IsolatedRuns = 2
	}
}

// Workbench owns a simulated host, the TPC-DS workload, and the training
// data collected from it. It is the entry point of the public API.
type Workbench struct {
	env     *experiments.Env
	quality *obs.Quality
	blame   *obs.Blame
	store   *KnowledgeStore
}

// NewWorkbench profiles the bundled 25-template TPC-DS workload on a
// simulated host and samples concurrent mixes (exhaustive pairs at MPL 2,
// Latin Hypercube designs above). This corresponds to the paper's entire
// training-data collection and completes in seconds of wall-clock time.
func NewWorkbench(options ...Option) (*Workbench, error) {
	return NewWorkbenchContext(context.Background(), options...)
}

// NewWorkbenchContext is NewWorkbench with cancellation: when ctx is
// cancelled the sampling campaign stops promptly (flushing its checkpoint
// first, if one is configured) and returns ctx's error.
func NewWorkbenchContext(ctx context.Context, options ...Option) (*Workbench, error) {
	var c config
	for _, o := range options {
		o(&c)
	}
	env, err := experiments.NewEnvContext(ctx, c.opts)
	if err != nil {
		return nil, fmt.Errorf("contender: building workbench: %w", err)
	}
	w := &Workbench{env: env, quality: c.quality, blame: c.blame}
	if c.storeDir != "" {
		if w.store, err = OpenStore(c.storeDir); err != nil {
			return nil, fmt.Errorf("contender: opening store: %w", err)
		}
	}
	return w, nil
}

// Resilience reports how the workbench's sampling campaign went: retries
// spent, tasks resumed from a checkpoint, quarantined work, and the
// resulting template coverage. A fault-free campaign reports zeros; with
// WithFaults, FaultStats tallies what the injector injected.
func (w *Workbench) Resilience() CollectionReport { return w.env.Resilience }

// TemplateIDs returns the workload's template IDs.
func (w *Workbench) TemplateIDs() []int { return w.env.TemplateIDs() }

// Template returns the isolated statistics of a profiled template.
func (w *Workbench) Template(id int) (TemplateStats, bool) {
	return w.env.Know.Template(id)
}

// TemplateDescription returns the human-readable description of a bundled
// template.
func (w *Workbench) TemplateDescription(id int) string {
	if t, ok := w.env.Workload.Template(id); ok {
		return t.Description
	}
	return ""
}

// Observations returns a copy of the steady-state measurements collected
// at an MPL, in sample order. Train fits from the campaign's own
// storage, so a caller may change the copy without moving the next fit.
func (w *Workbench) Observations(mpl int) []Observation {
	src := w.env.Observations(mpl)
	if len(src) == 0 {
		return nil
	}
	n := 0
	for _, o := range src {
		n += len(o.Concurrent)
	}
	out := make([]Observation, len(src))
	conc := make([]int, 0, n)
	for i, o := range src {
		k := len(conc)
		conc = append(conc, o.Concurrent...)
		o.Concurrent = conc[k:len(conc):len(conc)]
		out[i] = o
	}
	return out
}

// Train fits Contender's reference QS models from the collected samples and
// returns a ready Predictor. A workbench built with WithObserver emits a
// train.fit span around the fit and hands the observer to the predictor
// for its serve.* spans.
func (w *Workbench) Train() (*Predictor, error) {
	p, err := fit(w.env.Know, w.env.AllObservations(), w.env.Opts.Observer, w.quality)
	if err != nil {
		return nil, err
	}
	return &Predictor{inner: p, env: w.env}, nil
}

// fit trains the reference QS models over a campaign's knowledge and
// observations inside a train.fit span, and hands the predictor the
// observer and quality aggregator it serves with. Workbench.Train and
// TrainFromSystem share it.
func fit(know *core.Knowledge, observations []core.Observation, o obs.Sink, q *Quality) (*core.Predictor, error) {
	var start time.Time
	if o.On() {
		start = time.Now()
	}
	p, err := core.Train(know, observations, core.TrainOptions{DropOutliers: true})
	if o.On() {
		o.Event(Event{
			Kind:  obs.SpanEnd,
			Span:  obs.SpanTrainFit,
			Value: float64(len(observations)),
			Dur:   time.Since(start),
			Err:   obs.ErrLabel(err),
		})
	}
	if err != nil {
		return nil, fmt.Errorf("contender: training: %w", err)
	}
	return p.WithHooks(o, q), nil
}

// Simulate executes a mix of known templates at steady state on the
// simulated host and returns each slot's mean latency — ground truth for
// validating predictions.
func (w *Workbench) Simulate(mix []int) ([]float64, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("contender: %w: nothing to simulate", ErrEmptyMix)
	}
	specs, err := w.specs(mix...)
	if err != nil {
		return nil, err
	}
	res, err := w.env.Engine.RunSteadyState(specs, sim.SteadyStateOptions{
		Samples: 5, WarmupSkip: 1, RestartCost: tpcds.RestartCost(),
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(mix))
	for i := range mix {
		out[i] = res.MeanLatency(i)
	}
	return out, nil
}

// SimulateIsolated runs one template alone and returns its result.
func (w *Workbench) SimulateIsolated(id int) (QueryResult, error) {
	specs, err := w.specs(id)
	if err != nil {
		return QueryResult{}, err
	}
	return w.env.Engine.RunIsolated(specs[0])
}

// specs resolves template IDs to their simulator specs; an unknown ID
// returns an error wrapping ErrUnknownTemplate.
func (w *Workbench) specs(ids ...int) ([]sim.QuerySpec, error) {
	out := make([]sim.QuerySpec, len(ids))
	for i, id := range ids {
		s, ok := w.env.Workload.Spec(id)
		if !ok {
			return nil, fmt.Errorf("contender: template %d: %w", id, ErrUnknownTemplate)
		}
		out[i] = s
	}
	return out, nil
}

// ProfileTemplate registers an ad-hoc template defined by a query plan:
// it derives the simulator resource profile via the cost model, measures
// the template's isolated statistics (one execution — the paper's
// constant-time sampling), and returns the stats to feed
// Predictor.PredictNew. The template is NOT added to the training
// workload.
func (w *Workbench) ProfileTemplate(id int, plan *Plan) (TemplateStats, error) {
	if err := plan.Validate(); err != nil {
		return TemplateStats{}, fmt.Errorf("contender: invalid plan: %w", err)
	}
	if _, exists := w.env.Workload.Template(id); exists {
		return TemplateStats{}, fmt.Errorf("contender: template id %d already exists in the workload", id)
	}
	spec := w.env.Workload.CostModel.Spec(w.env.Workload.Catalog, id, plan)
	res, err := w.env.Engine.RunIsolated(spec)
	if err != nil {
		return TemplateStats{}, err
	}
	ts := TemplateStats{
		ID:              id,
		IsolatedLatency: res.Latency,
		IOFraction:      res.IOFraction(),
		WorkingSetBytes: spec.WorkingSetBytes,
		SpoilerLatency:  map[int]float64{},
		Scans:           factScans(w, plan),
		PlanSteps:       plan.Steps(),
		RecordsAccessed: plan.RecordsAccessed(),
	}
	return ts, nil
}

// SimulateAdhoc measures the ground-truth latency of an ad-hoc plan
// running in a mix with known templates (the ad-hoc query is slot 0).
func (w *Workbench) SimulateAdhoc(id int, plan *Plan, concurrent []int) (float64, error) {
	if err := plan.Validate(); err != nil {
		return 0, fmt.Errorf("contender: invalid plan: %w", err)
	}
	others, err := w.specs(concurrent...)
	if err != nil {
		return 0, err
	}
	spec := w.env.Workload.CostModel.Spec(w.env.Workload.Catalog, id, plan)
	res, err := w.env.Engine.RunSteadyState(append([]sim.QuerySpec{spec}, others...), sim.SteadyStateOptions{
		Samples: 5, WarmupSkip: 1, RestartCost: tpcds.RestartCost(),
	})
	if err != nil {
		return 0, err
	}
	return res.MeanLatency(0), nil
}

// GenerateAdhocPlan synthesizes a random but realistic analytical query
// plan against the workload's catalog — an unbounded supply of
// never-before-seen templates for exercising the ad-hoc prediction path.
// Generation is deterministic for a fixed seed.
func (w *Workbench) GenerateAdhocPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	t := tpcds.GenerateTemplate(w.env.Workload.Catalog, 0, tpcds.DefaultGeneratorOptions(), rng)
	return t.Plan
}

func factScans(w *Workbench, plan *Plan) map[string]bool {
	scans := plan.ScannedTables()
	for f := range scans {
		if t, ok := w.env.Workload.Catalog.Table(f); !ok || !t.Fact {
			delete(scans, f)
		}
	}
	return scans
}

// LoadPredictor reconstructs a trained predictor from a snapshot produced
// by Predictor.Save. The result predicts known templates and accepts
// ad-hoc ones exactly like a freshly trained predictor; it is not bound to
// a Workbench (use a Workbench when you also need simulation).
func LoadPredictor(r io.Reader) (*Predictor, error) {
	inner, err := core.LoadPredictor(r)
	if err != nil {
		return nil, err
	}
	return &Predictor{inner: inner}, nil
}

// LoadPredictorFile reads a predictor snapshot from a file.
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("contender: opening snapshot: %w", err)
	}
	defer f.Close()
	return LoadPredictor(f)
}
