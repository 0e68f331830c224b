package experiments

import (
	"fmt"
	"slices"

	"contender/internal/core"
	"contender/internal/resilience"
	"contender/internal/sim"
	"contender/internal/tpcds"
)

// The measurement contract. Contender's models consume only a handful of
// observables — isolated latencies, procfs-style I/O time, plan scan sets,
// spoiler latencies, steady-state mix latencies — and System captures
// exactly that, so the one campaign engine (campaign.go) can sample any
// database that can run queries and a spoiler process. The simulator
// adapter below is the reference implementation; Env measures through it.

// Measurement is one observed query execution.
type Measurement struct {
	// LatencySeconds is wall-clock execution time.
	LatencySeconds float64 `json:"latency_seconds"`
	// IOSeconds is time spent on disk I/O during the execution (procfs
	// accounting on a real system).
	IOSeconds float64 `json:"io_seconds"`
}

// TemplateMeta describes a workload template to the campaign: its
// identity plus the plan-derived features Contender's models use.
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

// System is the measurement backend a campaign samples. Implementations
// should be deterministic per seed where possible, but the engine
// tolerates real-world variance: it validates every value and retries or
// quarantines failures under Options.Retry.
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

// timedMixer is implemented by backends that also report the virtual
// duration of a steady-state run — the mix hours of the §5.4 sampling
// cost table. The method is unexported, so the public System contract
// stays as narrow as a real database needs.
type timedMixer interface {
	runMixTimed(mix []int, samplesPerStream int) ([]float64, float64, error)
}

// SimSystem adapts a simulated host running the given workload to the
// System contract.
func SimSystem(w *tpcds.Workload, eng *sim.Engine) System {
	return &simSystem{workload: w, engine: eng}
}

// simSystem is the simulator adapter. The campaign gives each task
// attempt exclusive use of one, so a mix task's specs, latencies and
// restart cost live in scratch it keeps across tasks.
type simSystem struct {
	workload *tpcds.Workload
	engine   *sim.Engine

	specs   []sim.QuerySpec
	lats    []float64
	restart []sim.Stage
}

func (s *simSystem) Templates() []TemplateMeta {
	var out []TemplateMeta
	facts := s.workload.Catalog.FactTables()
	for _, t := range s.workload.Templates() {
		meta := TemplateMeta{
			ID:              t.ID,
			WorkingSetBytes: s.workload.MustSpec(t.ID).WorkingSetBytes,
			PlanSteps:       t.Plan.Steps(),
			RecordsAccessed: t.Plan.RecordsAccessed(),
		}
		// Dimension scans are buffer-resident and create no I/O
		// interactions, so only fact-table scans count.
		scanned := t.Plan.ScannedTables()
		for _, f := range facts {
			if scanned[f.Name] {
				meta.FactScans = append(meta.FactScans, f.Name)
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

func (s *simSystem) spec(id int) (sim.QuerySpec, error) {
	spec, ok := s.workload.Spec(id)
	if !ok {
		return sim.QuerySpec{}, resilience.Permanent(fmt.Errorf("%w: T%d", core.ErrUnknownTemplate, id))
	}
	return spec, nil
}

func (s *simSystem) RunIsolated(id int) (Measurement, error) {
	spec, err := s.spec(id)
	if err != nil {
		return Measurement{}, err
	}
	res, err := s.engine.RunIsolated(spec)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{LatencySeconds: res.Latency, IOSeconds: res.IOTime}, nil
}

func (s *simSystem) RunSpoiler(id, mpl int) (Measurement, error) {
	spec, err := s.spec(id)
	if err != nil {
		return Measurement{}, err
	}
	res, err := s.engine.RunWithSpoiler(spec, mpl)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{LatencySeconds: res.Latency, IOSeconds: res.IOTime}, nil
}

func (s *simSystem) RunMix(mix []int, samples int) ([]float64, error) {
	lats, _, err := s.runMixTimed(mix, samples)
	return slices.Clone(lats), err
}

// runMixTimed returns the mix's mean latencies in scratch that the
// adapter's next mix run overwrites; the campaign copies them into its
// latency slab before it hands the adapter back.
func (s *simSystem) runMixTimed(mix []int, samples int) ([]float64, float64, error) {
	s.specs = s.specs[:0]
	for _, id := range mix {
		spec, err := s.spec(id)
		if err != nil {
			return nil, 0, err
		}
		s.specs = append(s.specs, spec)
	}
	if s.restart == nil {
		s.restart = tpcds.RestartCost()
	}
	res, err := s.engine.RunSteadyState(s.specs, sim.SteadyStateOptions{
		Samples: samples, WarmupSkip: 1, RestartCost: s.restart,
	})
	if err != nil {
		return nil, 0, err
	}
	s.lats = s.lats[:0]
	for i := range mix {
		s.lats = append(s.lats, res.MeanLatency(i))
	}
	return s.lats, res.Duration, nil
}
