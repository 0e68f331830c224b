package contender

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"contender/internal/core"
	"contender/internal/experiments"
	"contender/internal/lhs"
	"contender/internal/obs"
	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// Integration interface: Contender's models consume only a handful of
// observables — isolated latencies, procfs-style I/O time, plan scan sets,
// spoiler latencies, steady-state mix latencies. System captures exactly
// that contract, so the framework can be trained against any database
// that can run queries and a spoiler process: implement System for your
// DBMS and call TrainFromSystem. The bundled simulator is the reference
// implementation (Workbench.System).

// Measurement is one observed query execution.
type Measurement struct {
	// LatencySeconds is wall-clock execution time.
	LatencySeconds float64
	// IOSeconds is time spent on disk I/O during the execution (procfs
	// accounting on a real system).
	IOSeconds float64
}

// TemplateMeta describes a workload template to the trainer: its identity
// plus the plan-derived features Contender's models use.
type TemplateMeta struct {
	ID int
	// FactScans lists the fact tables the template's plan scans
	// sequentially (CQI's shared-scan terms are computed over them).
	FactScans []string
	// WorkingSetBytes is the size of the largest intermediate result
	// (from the plan's hash/sort operators).
	WorkingSetBytes float64
	// PlanSteps and RecordsAccessed are the complexity features of
	// Table 3.
	PlanSteps       int
	RecordsAccessed float64
}

// System is the measurement backend Contender trains against.
// Implementations must be deterministic per seed where possible, but the
// trainer tolerates real-world variance.
type System interface {
	// Templates enumerates the trainable workload.
	Templates() []TemplateMeta
	// FactTables lists the fact tables whose scan times CQI needs.
	FactTables() []string
	// ScanSeconds measures s_f: the isolated duration of a sequential
	// scan of the table.
	ScanSeconds(table string) (float64, error)
	// RunIsolated executes the template alone on an idle system.
	RunIsolated(id int) (Measurement, error)
	// RunSpoiler executes the template against the paper's spoiler for
	// the given MPL: (1-1/mpl) of RAM pinned, mpl-1 competing I/O streams.
	RunSpoiler(id int, mpl int) (Measurement, error)
	// RunMix executes the template mix at steady state (Figure 2) and
	// returns each slot's mean latency.
	RunMix(mix []int, samplesPerStream int) ([]float64, error)
}

// TrainConfig controls TrainFromSystem's sampling design. The zero value
// uses the paper's protocol at MPLs 2–3 with fail-fast error handling.
//
// TrainConfig and the Workbench's functional options configure the same
// underlying surface (internal/experiments.Options); both TrainFromSystem
// and TrainFromSystemContext additionally accept Option values, applied on
// top of the struct. The mapping is one-to-one:
//
//	WithMPLs          ↔ TrainConfig.MPLs
//	WithSeed          ↔ TrainConfig.Seed
//	WithLHSRuns       ↔ TrainConfig.LHSRuns
//	WithSteadySamples ↔ TrainConfig.SteadySamples
//	WithRetry         ↔ TrainConfig.Retry
//	WithCheckpoint    ↔ TrainConfig.CheckpointPath
//	WithFaults        ↔ TrainConfig.Faults
//	WithObserver      ↔ TrainConfig.Observer
//	WithQuality       ↔ TrainConfig.Quality
//
// WithHost and WithWorkers configure the bundled simulator host and its
// sampling pool; they have no meaning against an external System (which
// owns its host and serializes its own measurements) and are ignored on
// this path.
type TrainConfig struct {
	// MPLs to sample and train for (default 2, 3).
	MPLs []int
	// LHSRuns is the number of disjoint Latin Hypercube designs per
	// MPL ≥ 3 (default 2).
	LHSRuns int
	// SteadySamples per stream in each steady-state mix (default 3).
	SteadySamples int
	// IsolatedRuns averaged into l_min and p_t (default 2).
	IsolatedRuns int
	// Seed drives the sampling designs.
	Seed int64
	// Retry, when set, wraps every measurement in the policy's
	// retry/backoff loop and switches the trainer from fail-fast to
	// quarantine-and-degrade: a template, table, or mix whose measurements
	// exhaust the budget (or fail permanently) is dropped and training
	// continues on the rest, with the loss reported in TrainResult.Report.
	// Nil preserves the legacy behavior: the first error aborts.
	Retry *RetryPolicy
	// CheckpointPath, when non-empty, persists every completed measurement
	// to this file (atomically, after each one) and resumes from it on the
	// next run with an identical configuration. A resumed campaign yields a
	// predictor byte-identical to an uninterrupted one. The file is removed
	// when training completes.
	CheckpointPath string
	// Faults, when set, wraps the System in NewFaultSystem with this
	// configuration before training — deterministic chaos for validating a
	// retry policy against a real integration. The injected-fault tally is
	// reported in TrainReport.FaultStats.
	Faults *FaultConfig
	// Observer, when set, receives the campaign's structured event stream:
	// a train.campaign span around the whole run, train.scan/
	// train.profile/train.isolated/train.spoiler/train.mix spans per
	// measurement, a train.fit span around model fitting, and train.retry/
	// train.quarantine/train.checkpoint/train.resume points from the
	// resilience machinery. Observation never changes what is measured, and
	// a panicking observer is isolated at the emit site. The trained
	// predictor inherits the observer for its serve.* spans.
	Observer Observer
	// Quality, when set, is inherited by the trained predictor so its
	// Feedback calls stream per-template accuracy statistics and drift
	// states into the aggregator. Training itself never consults it.
	Quality *Quality
}

// envOptions maps the System-path config onto the shared collection
// options surface, so Workbench Option funcs can edit it.
func (c TrainConfig) envOptions() experiments.Options {
	return experiments.Options{
		MPLs:           c.MPLs,
		LHSRuns:        c.LHSRuns,
		SteadySamples:  c.SteadySamples,
		IsolatedRuns:   c.IsolatedRuns,
		Seed:           c.Seed,
		Retry:          c.Retry,
		Faults:         c.Faults,
		CheckpointPath: c.CheckpointPath,
		Observer:       c.Observer,
	}
}

// apply folds Workbench-style options into the config by round-tripping
// through the shared options surface. Host- and pool-related options
// (WithHost, WithWorkers) do not apply to external systems and are
// dropped.
func (c TrainConfig) apply(options []Option) TrainConfig {
	if len(options) == 0 {
		return c
	}
	cf := config{opts: c.envOptions(), quality: c.Quality}
	for _, o := range options {
		o(&cf)
	}
	c.MPLs = cf.opts.MPLs
	c.LHSRuns = cf.opts.LHSRuns
	c.SteadySamples = cf.opts.SteadySamples
	c.IsolatedRuns = cf.opts.IsolatedRuns
	c.Seed = cf.opts.Seed
	c.Retry = cf.opts.Retry
	c.Faults = cf.opts.Faults
	c.CheckpointPath = cf.opts.CheckpointPath
	c.Observer = cf.opts.Observer
	c.Quality = cf.quality
	return c
}

func (c TrainConfig) withDefaults() TrainConfig {
	if len(c.MPLs) == 0 {
		c.MPLs = []int{2, 3}
	}
	if c.LHSRuns <= 0 {
		c.LHSRuns = 2
	}
	if c.SteadySamples <= 0 {
		c.SteadySamples = 3
	}
	if c.IsolatedRuns <= 0 {
		c.IsolatedRuns = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// QuarantineRecord documents one unit of work the trainer gave up on:
// either a template (isolated or spoiler sampling failed) or a fact table
// (scan-time measurement failed). Site names the failing call site and
// Reason carries the terminal error.
type QuarantineRecord struct {
	Template int    `json:"template,omitempty"`
	Table    string `json:"table,omitempty"`
	Site     string `json:"site"`
	Reason   string `json:"reason"`
}

// TrainReport summarizes how a resilient training campaign went: what was
// retried, what was quarantined, what coverage the resulting predictor
// actually has.
type TrainReport struct {
	// TotalTemplates is the size of the workload offered for training.
	TotalTemplates int `json:"total_templates"`
	// TrainedTemplates is how many survived sampling.
	TrainedTemplates int `json:"trained_templates"`
	// QuarantinedTemplates lists templates dropped after their retry
	// budget was exhausted (or a permanent failure).
	QuarantinedTemplates []QuarantineRecord `json:"quarantined_templates,omitempty"`
	// QuarantinedTables lists fact tables whose scan time could not be
	// measured; CQI degrades gracefully without them.
	QuarantinedTables []QuarantineRecord `json:"quarantined_tables,omitempty"`
	// PlannedMixes and DroppedMixes count the steady-state design: a mix is
	// dropped when it contains a quarantined template or its own
	// measurement failed terminally.
	PlannedMixes int `json:"planned_mixes"`
	DroppedMixes int `json:"dropped_mixes"`
	// Retries is the total number of extra attempts the retry policy spent.
	Retries int `json:"retries"`
	// Resumed is the number of measurements replayed from the checkpoint
	// instead of re-measured.
	Resumed int `json:"resumed_measurements"`
	// FaultStats tallies what TrainConfig.Faults/WithFaults injected; nil
	// when no fault injection was configured.
	FaultStats *FaultStats `json:"fault_stats,omitempty"`
}

// Degraded reports whether the campaign lost any coverage.
func (r TrainReport) Degraded() bool {
	return len(r.QuarantinedTemplates) > 0 || len(r.QuarantinedTables) > 0 || r.DroppedMixes > 0
}

// Coverage is the fraction of the offered workload the predictor covers.
func (r TrainReport) Coverage() float64 {
	if r.TotalTemplates == 0 {
		return 1
	}
	return float64(r.TrainedTemplates) / float64(r.TotalTemplates)
}

// TrainResult is a trained predictor plus the campaign's resilience report.
type TrainResult struct {
	Predictor *Predictor
	Report    TrainReport
}

// TrainFromSystem runs Contender's full training pipeline against an
// arbitrary measurement backend: profile every template in isolation and
// under the spoiler, measure per-table scan times, sample concurrent mixes
// (exhaustive pairs at MPL 2, LHS designs above), and fit the reference QS
// models. It is a thin wrapper over TrainFromSystemContext and returns the
// same result shape: the trained predictor plus the campaign report.
// Workbench-style options (WithRetry, WithCheckpoint, WithFaults,
// WithObserver, …) are applied on top of cfg; see TrainConfig for the
// mapping.
func TrainFromSystem(sys System, cfg TrainConfig, options ...Option) (*TrainResult, error) {
	return TrainFromSystemContext(context.Background(), sys, cfg, options...)
}

// TrainFromSystemContext is TrainFromSystem with cancellation. The context
// is honored between measurements (and during retry backoff); cancelling
// returns ctx.Err() with all completed work already persisted when
// cfg.CheckpointPath is set, so the campaign can be resumed. With
// cfg.Retry set, failures are retried and then quarantined rather than
// aborting; the report describes the degradation.
func TrainFromSystemContext(ctx context.Context, sys System, cfg TrainConfig, options ...Option) (*TrainResult, error) {
	cfg = cfg.apply(options).withDefaults()
	cfg.Retry = observedRetryPolicy(cfg.Retry, cfg.Observer)
	var faultSys *FaultSystem
	if cfg.Faults != nil {
		faultSys = NewFaultSystem(sys, *cfg.Faults)
		sys = faultSys
	}
	o := cfg.Observer
	var start time.Time
	if o != nil {
		start = time.Now()
		obs.Emit(o, Event{Kind: obs.SpanBegin, Span: obs.SpanTrainCampaign})
	}
	res, err := trainFromSystem(ctx, sys, cfg)
	if o != nil {
		end := Event{Kind: obs.SpanEnd, Span: obs.SpanTrainCampaign, Dur: time.Since(start), Err: obs.ErrLabel(err)}
		if res != nil {
			end.Value = float64(res.Report.TrainedTemplates)
		}
		obs.Emit(o, end)
	}
	if err != nil {
		return nil, err
	}
	if faultSys != nil {
		stats := faultSys.Stats()
		res.Report.FaultStats = &stats
	}
	res.Predictor.SetObserver(o)
	res.Predictor.SetQuality(cfg.Quality)
	return res, nil
}

// trainFromSystem is the campaign body, once config, fault wrapping, and
// the campaign span are in place.
func trainFromSystem(ctx context.Context, sys System, cfg TrainConfig) (*TrainResult, error) {
	templates := sys.Templates()
	if len(templates) < 2 {
		return nil, resilience.Permanent(fmt.Errorf("contender: need at least 2 templates, have %d", len(templates)))
	}
	tables := sys.FactTables()

	t := &trainer{
		ctx: ctx, sys: sys, cfg: cfg, o: cfg.Observer,
		badTemplates: map[int]bool{}, badTables: map[string]bool{},
	}
	t.report.TotalTemplates = len(templates)
	if cfg.CheckpointPath != "" {
		ckpt, err := loadTrainCheckpoint(cfg.CheckpointPath, trainFingerprint(cfg, templates, tables))
		if err != nil {
			return nil, err
		}
		t.ckpt = ckpt
		// Replay quarantine decisions from the interrupted campaign so the
		// resumed run skips the same units of work.
		for _, q := range ckpt.state.Quarantined {
			if q.Table != "" {
				t.badTables[q.Table] = true
				t.report.QuarantinedTables = append(t.report.QuarantinedTables, q)
			} else {
				t.badTemplates[q.Template] = true
				t.report.QuarantinedTemplates = append(t.report.QuarantinedTemplates, q)
			}
			t.emitPoint(obs.PointTrainQuarantine, q.Site)
		}
	}

	know := core.NewKnowledge()
	for _, table := range tables {
		if t.badTables[table] {
			continue
		}
		s, err := t.scanSeconds(table)
		if err != nil {
			if t.fatal(err) {
				return nil, fmt.Errorf("contender: measuring scan of %s: %w", table, err)
			}
			if qerr := t.quarantineTable(table, "scan/"+table, err); qerr != nil {
				return nil, qerr
			}
			continue
		}
		know.SetScanTime(table, s)
	}

	// The mix designs are drawn over the FULL workload even when templates
	// quarantine: keeping every template in the index space means the
	// surviving mixes are exactly the mixes a fault-free campaign would
	// have run, so degradation drops observations without reshuffling them.
	ids := make([]int, len(templates))
	for i, meta := range templates {
		ids[i] = meta.ID
		if t.badTemplates[meta.ID] {
			continue
		}
		ts, site, err := t.profileObserved(meta)
		if err != nil {
			if t.fatal(err) {
				return nil, err
			}
			if qerr := t.quarantineTemplate(meta.ID, site, err); qerr != nil {
				return nil, qerr
			}
			continue
		}
		know.AddTemplate(ts)
	}
	trained := len(templates) - len(t.badTemplates)
	if trained < 2 {
		return nil, resilience.Permanent(fmt.Errorf("contender: only %d of %d templates survived sampling (need at least 2, %d quarantined)",
			trained, len(templates), len(t.report.QuarantinedTemplates)))
	}

	var observations []core.Observation
	for _, mpl := range cfg.MPLs {
		for i, mix := range lhs.MixesFor(len(ids), mpl, cfg.LHSRuns, cfg.Seed+int64(mpl)) {
			t.report.PlannedMixes++
			idMix := make(lhs.Mix, len(mix))
			quarantined := false
			for j, idx := range mix {
				idMix[j] = ids[idx]
				if t.badTemplates[idMix[j]] {
					quarantined = true
				}
			}
			if quarantined {
				t.report.DroppedMixes++
				continue
			}
			lats, err := t.mix(mpl, i, idMix)
			if err != nil {
				if t.fatal(err) {
					return nil, fmt.Errorf("contender: steady-state mix %v: %w", idMix, err)
				}
				t.report.DroppedMixes++
				continue
			}
			for slot, id := range idMix {
				observations = append(observations, core.Observation{
					Primary:    id,
					Concurrent: idMix.WithoutOne(id),
					Latency:    lats[slot],
				})
			}
		}
	}

	var fitStart time.Time
	if t.o != nil {
		fitStart = time.Now()
	}
	inner, err := core.Train(know, observations, core.TrainOptions{DropOutliers: true})
	if t.o != nil {
		obs.Emit(t.o, Event{
			Kind:  obs.SpanEnd,
			Span:  obs.SpanTrainFit,
			Value: float64(len(observations)),
			Dur:   time.Since(fitStart),
			Err:   obs.ErrLabel(err),
		})
	}
	if err != nil {
		return nil, fmt.Errorf("contender: training from system: %w", err)
	}
	t.report.TrainedTemplates = trained
	if t.ckpt != nil {
		t.ckpt.discard()
	}
	return &TrainResult{Predictor: &Predictor{inner: inner}, Report: t.report}, nil
}

// errCheckpointWrite marks a failed checkpoint flush — always fatal, even
// in quarantine mode, because continuing would break the resume guarantee.
// Classified permanent so taxonomy-aware callers agree.
var errCheckpointWrite = resilience.Permanent(errors.New("checkpoint write failed"))

// trainer carries one campaign's state through TrainFromSystemContext.
type trainer struct {
	ctx    context.Context
	sys    System
	cfg    TrainConfig
	ckpt   *trainCheckpoint
	report TrainReport
	o      obs.Observer

	badTemplates map[int]bool
	badTables    map[string]bool
}

// emitPoint emits an instantaneous event when an observer is installed.
func (t *trainer) emitPoint(span, key string) {
	if t.o == nil {
		return
	}
	obs.Emit(t.o, Event{Kind: obs.Point, Span: span, Key: key})
}

// fatal reports whether err must abort the campaign: cancellation and
// checkpoint-write failures always do; every error does when no retry
// policy is configured (legacy fail-fast mode).
func (t *trainer) fatal(err error) bool {
	return t.cfg.Retry == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errCheckpointWrite)
}

// measure runs one measurement under the retry policy (or once, in legacy
// mode), accounts for the attempts spent, and wraps the whole thing in the
// given span when an observer is installed.
func (t *trainer) measure(span, site string, fn func() error) error {
	if t.o == nil {
		_, err := t.measureAttempts(site, fn)
		return err
	}
	obs.Emit(t.o, Event{Kind: obs.SpanBegin, Span: span, Key: site})
	start := time.Now()
	attempts, err := t.measureAttempts(site, fn)
	obs.Emit(t.o, Event{
		Kind:    obs.SpanEnd,
		Span:    span,
		Key:     site,
		Attempt: attempts,
		Dur:     time.Since(start),
		Err:     obs.ErrLabel(err),
	})
	return err
}

func (t *trainer) measureAttempts(site string, fn func() error) (int, error) {
	if t.cfg.Retry == nil {
		if err := t.ctx.Err(); err != nil {
			return 0, err
		}
		return 1, fn()
	}
	attempts, err := t.cfg.Retry.Do(t.ctx, site, fn)
	if attempts > 1 {
		t.report.Retries += attempts - 1
	}
	return attempts, err
}

// persist flushes the checkpoint after a completed measurement at site.
func (t *trainer) persist(site string) error {
	if t.ckpt == nil {
		return nil
	}
	if err := t.ckpt.flush(); err != nil {
		return fmt.Errorf("%w: %w", errCheckpointWrite, err)
	}
	t.emitPoint(obs.PointTrainCheckpoint, site)
	return nil
}

func (t *trainer) quarantineTable(table, site string, err error) error {
	rec := QuarantineRecord{Table: table, Site: site, Reason: err.Error()}
	t.report.QuarantinedTables = append(t.report.QuarantinedTables, rec)
	t.badTables[table] = true
	t.emitPoint(obs.PointTrainQuarantine, site)
	if t.ckpt != nil {
		t.ckpt.state.Quarantined = append(t.ckpt.state.Quarantined, rec)
		return t.persist(site)
	}
	return nil
}

func (t *trainer) quarantineTemplate(id int, site string, err error) error {
	rec := QuarantineRecord{Template: id, Site: site, Reason: err.Error()}
	t.report.QuarantinedTemplates = append(t.report.QuarantinedTemplates, rec)
	t.badTemplates[id] = true
	t.emitPoint(obs.PointTrainQuarantine, site)
	if t.ckpt != nil {
		t.ckpt.state.Quarantined = append(t.ckpt.state.Quarantined, rec)
		return t.persist(site)
	}
	return nil
}

// scanSeconds measures (or replays) one table's scan time.
func (t *trainer) scanSeconds(table string) (float64, error) {
	site := "scan/" + table
	if t.ckpt != nil {
		if v, ok := t.ckpt.state.Scans[site]; ok {
			t.report.Resumed++
			t.emitPoint(obs.PointTrainResume, site)
			return v, nil
		}
	}
	var out float64
	err := t.measure(obs.SpanTrainScan, site, func() error {
		v, err := t.sys.ScanSeconds(table)
		if err != nil {
			return err
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return resilience.Corruptf("scan of %s returned %g seconds", table, v)
		}
		out = v
		return nil
	})
	if err != nil {
		return 0, err
	}
	if t.ckpt != nil {
		t.ckpt.state.Scans[site] = out
		if err := t.persist(site); err != nil {
			return 0, err
		}
	}
	return out, nil
}

// validateMeasurement rejects values no real execution can produce; the
// corrupt classification makes the retry loop discard and resample them.
func validateMeasurement(m Measurement) error {
	if !(m.LatencySeconds > 0) || math.IsInf(m.LatencySeconds, 0) {
		return resilience.Corruptf("latency %g seconds", m.LatencySeconds)
	}
	if m.IOSeconds < 0 || math.IsNaN(m.IOSeconds) || math.IsInf(m.IOSeconds, 0) {
		return resilience.Corruptf("io time %g seconds", m.IOSeconds)
	}
	return nil
}

// isolated measures (or replays) one isolated run of a template.
func (t *trainer) isolated(id, run int) (Measurement, error) {
	site := fmt.Sprintf("isolated/%d/%d", id, run)
	if t.ckpt != nil {
		if m, ok := t.ckpt.state.Isolated[site]; ok {
			t.report.Resumed++
			t.emitPoint(obs.PointTrainResume, site)
			return m, nil
		}
	}
	var out Measurement
	err := t.measure(obs.SpanTrainIsolated, site, func() error {
		m, err := t.sys.RunIsolated(id)
		if err != nil {
			return err
		}
		if verr := validateMeasurement(m); verr != nil {
			return verr
		}
		out = m
		return nil
	})
	if err != nil {
		return Measurement{}, err
	}
	if t.ckpt != nil {
		t.ckpt.state.Isolated[site] = out
		if err := t.persist(site); err != nil {
			return Measurement{}, err
		}
	}
	return out, nil
}

// spoiler measures (or replays) one spoiler latency of a template.
func (t *trainer) spoiler(id, mpl int) (float64, error) {
	site := fmt.Sprintf("spoiler/%d/%d", id, mpl)
	if t.ckpt != nil {
		if v, ok := t.ckpt.state.Spoilers[site]; ok {
			t.report.Resumed++
			t.emitPoint(obs.PointTrainResume, site)
			return v, nil
		}
	}
	var out float64
	err := t.measure(obs.SpanTrainSpoiler, site, func() error {
		m, err := t.sys.RunSpoiler(id, mpl)
		if err != nil {
			return err
		}
		if verr := validateMeasurement(m); verr != nil {
			return verr
		}
		out = m.LatencySeconds
		return nil
	})
	if err != nil {
		return 0, err
	}
	if t.ckpt != nil {
		t.ckpt.state.Spoilers[site] = out
		if err := t.persist(site); err != nil {
			return 0, err
		}
	}
	return out, nil
}

// mix measures (or replays) one steady-state mix.
func (t *trainer) mix(mpl, index int, idMix []int) ([]float64, error) {
	site := fmt.Sprintf("mix/%d/%d", mpl, index)
	if t.ckpt != nil {
		if lats, ok := t.ckpt.state.Mixes[site]; ok {
			t.report.Resumed++
			t.emitPoint(obs.PointTrainResume, site)
			return lats, nil
		}
	}
	var out []float64
	err := t.measure(obs.SpanTrainMix, site, func() error {
		lats, err := t.sys.RunMix(idMix, t.cfg.SteadySamples)
		if err != nil {
			return err
		}
		if len(lats) != len(idMix) {
			return resilience.Corruptf("RunMix returned %d latencies for a %d-query mix", len(lats), len(idMix))
		}
		for slot, l := range lats {
			if !(l > 0) || math.IsInf(l, 0) {
				return resilience.Corruptf("mix latency %g seconds in slot %d", l, slot)
			}
		}
		out = lats
		return nil
	})
	if err != nil {
		return nil, err
	}
	if t.ckpt != nil {
		t.ckpt.state.Mixes[site] = out
		if err := t.persist(site); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// profileObserved wraps profile in a train.profile span covering the
// template's whole isolated+spoiler measurement block.
func (t *trainer) profileObserved(meta TemplateMeta) (core.TemplateStats, string, error) {
	if t.o == nil {
		return t.profile(meta)
	}
	key := fmt.Sprintf("template/%d", meta.ID)
	obs.Emit(t.o, Event{Kind: obs.SpanBegin, Span: obs.SpanTrainProfile, Key: key, Template: meta.ID})
	start := time.Now()
	ts, site, err := t.profile(meta)
	obs.Emit(t.o, Event{
		Kind:     obs.SpanEnd,
		Span:     obs.SpanTrainProfile,
		Key:      key,
		Template: meta.ID,
		Dur:      time.Since(start),
		Err:      obs.ErrLabel(err),
	})
	return ts, site, err
}

// profile collects one template's isolated statistics and spoiler
// latencies. On failure it returns the failing call site so the caller can
// quarantine with context.
func (t *trainer) profile(meta TemplateMeta) (core.TemplateStats, string, error) {
	var latSum, ioSum float64
	for r := 0; r < t.cfg.IsolatedRuns; r++ {
		m, err := t.isolated(meta.ID, r)
		if err != nil {
			return core.TemplateStats{}, fmt.Sprintf("isolated/%d/%d", meta.ID, r),
				fmt.Errorf("contender: isolated run of T%d: %w", meta.ID, err)
		}
		latSum += m.LatencySeconds
		ioSum += m.IOSeconds
	}
	ts := core.TemplateStats{
		ID:              meta.ID,
		IsolatedLatency: latSum / float64(t.cfg.IsolatedRuns),
		IOFraction:      ioSum / latSum,
		WorkingSetBytes: meta.WorkingSetBytes,
		PlanSteps:       meta.PlanSteps,
		RecordsAccessed: meta.RecordsAccessed,
		Scans:           make(map[string]bool, len(meta.FactScans)),
		SpoilerLatency:  make(map[int]float64, len(t.cfg.MPLs)),
	}
	for _, f := range meta.FactScans {
		ts.Scans[f] = true
	}
	for _, mpl := range t.cfg.MPLs {
		v, err := t.spoiler(meta.ID, mpl)
		if err != nil {
			return core.TemplateStats{}, fmt.Sprintf("spoiler/%d/%d", meta.ID, mpl),
				fmt.Errorf("contender: spoiler run of T%d at MPL %d: %w", meta.ID, mpl, err)
		}
		ts.SpoilerLatency[mpl] = v
	}
	return ts, "", nil
}

// System returns the simulator-backed reference implementation of the
// System interface, measuring the workbench's workload on its host.
func (w *Workbench) System() System {
	return &simSystem{workload: w.env.Workload, engine: w.env.Engine}
}

// simSystem adapts the simulator to the System interface.
type simSystem struct {
	workload *tpcds.Workload
	engine   *sim.Engine
}

func (s *simSystem) Templates() []TemplateMeta {
	var out []TemplateMeta
	for _, t := range s.workload.Templates() {
		spec := s.workload.MustSpec(t.ID)
		meta := TemplateMeta{
			ID:              t.ID,
			WorkingSetBytes: spec.WorkingSetBytes,
			PlanSteps:       t.Plan.Steps(),
			RecordsAccessed: t.Plan.RecordsAccessed(),
		}
		for table := range t.Plan.ScannedTables() {
			if tb, ok := s.workload.Catalog.Table(table); ok && tb.Fact {
				meta.FactScans = append(meta.FactScans, table)
			}
		}
		out = append(out, meta)
	}
	return out
}

func (s *simSystem) FactTables() []string {
	var out []string
	for _, t := range s.workload.Catalog.FactTables() {
		out = append(out, t.Name)
	}
	return out
}

func (s *simSystem) ScanSeconds(table string) (float64, error) {
	t, ok := s.workload.Catalog.Table(table)
	if !ok {
		return 0, resilience.Permanent(fmt.Errorf("unknown table %q", table))
	}
	return s.engine.MeasureScanTime(table, t.Bytes())
}

func (s *simSystem) RunIsolated(id int) (Measurement, error) {
	spec, ok := s.workload.Spec(id)
	if !ok {
		return Measurement{}, resilience.Permanent(fmt.Errorf("%w: T%d", core.ErrUnknownTemplate, id))
	}
	res, err := s.engine.RunIsolated(spec)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{LatencySeconds: res.Latency, IOSeconds: res.IOTime}, nil
}

func (s *simSystem) RunSpoiler(id, mpl int) (Measurement, error) {
	spec, ok := s.workload.Spec(id)
	if !ok {
		return Measurement{}, resilience.Permanent(fmt.Errorf("%w: T%d", core.ErrUnknownTemplate, id))
	}
	res, err := s.engine.RunWithSpoiler(spec, mpl)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{LatencySeconds: res.Latency, IOSeconds: res.IOTime}, nil
}

func (s *simSystem) RunMix(mix []int, samples int) ([]float64, error) {
	specs := make([]sim.QuerySpec, len(mix))
	for i, id := range mix {
		spec, ok := s.workload.Spec(id)
		if !ok {
			return nil, resilience.Permanent(fmt.Errorf("%w: T%d", core.ErrUnknownTemplate, id))
		}
		specs[i] = spec
	}
	res, err := s.engine.RunSteadyState(specs, sim.SteadyStateOptions{
		Samples: samples, WarmupSkip: 1, RestartCost: tpcds.RestartCost(),
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
