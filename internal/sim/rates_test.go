package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceRates is the map-based rate computation rates replaced, kept
// as an independent oracle: it groups scanners by table explicitly and
// recomputes every run's I/O volume from its spec.
func referenceRates(e *Engine) (progress, swap []float64) {
	n := len(e.runs)
	progress = make([]float64, n)
	swap = make([]float64, n)

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

	inflation := make([]float64, n)
	for i, r := range e.runs {
		inflation[i] = 1
		if r.done || deficit <= 0 || totalWS <= 0 || r.spec.WorkingSetBytes <= 0 {
			continue
		}
		spill := deficit * r.spec.WorkingSetBytes / totalWS
		useful := r.spec.TotalIOBytes(e.cfg.PageBytes)
		if useful < e.cfg.PageBytes {
			useful = e.cfg.PageBytes
		}
		inflation[i] = 1 + r.spec.WorkingSetReuse*spill/useful
	}

	type groupKey struct{ table string }
	groups := make(map[groupKey][]int)
	consumers := e.spoilerStreams
	var randRuns []int
	for i, r := range e.runs {
		if r.done {
			continue
		}
		switch st := r.spec.Stages[r.stageIdx]; st.Kind {
		case StageSeqIO:
			if e.cfg.SharedScans {
				k := groupKey{st.Table}
				if len(groups[k]) == 0 {
					consumers++
				}
				groups[k] = append(groups[k], i)
			} else {
				groups[groupKey{fmt.Sprintf("!%d", i)}] = []int{i}
				consumers++
			}
		case StageRandIO:
			randRuns = append(randRuns, i)
			consumers++
		}
	}

	share := 1.0
	if consumers > 0 {
		share = 1 / float64(consumers)
	}

	cpuRuns := 0
	for _, r := range e.runs {
		if !r.done && r.spec.Stages[r.stageIdx].Kind == StageCPU {
			cpuRuns++
		}
	}
	cpuShare := 1.0
	if cpuRuns > e.cfg.Cores {
		cpuShare = float64(e.cfg.Cores) / float64(cpuRuns)
	}

	for _, members := range groups {
		for _, i := range members {
			rate := share * e.cfg.SeqBandwidth / inflation[i]
			progress[i] = rate
			swap[i] = rate * (inflation[i] - 1)
		}
	}
	for _, i := range randRuns {
		rate := share * e.cfg.RandIOPS / inflation[i]
		progress[i] = rate
		swap[i] = rate * e.cfg.PageBytes * (inflation[i] - 1)
	}
	for i, r := range e.runs {
		if r.done {
			continue
		}
		switch r.spec.Stages[r.stageIdx].Kind {
		case StageCachedIO:
			progress[i] = e.cfg.CachedBandwidth
		case StageCPU:
			infl := 1 + e.cfg.SwapCPUWeight*(inflation[i]-1)
			progress[i] = cpuShare / infl
			swap[i] = 0
		}
	}
	return progress, swap
}

// randomEngine draws an engine state: shared scans on or off, a spoiler
// at MPL 1–5, up to eight runs over three tables with working sets that
// often overcommit memory, stages of every kind (some empty, so the
// I/O-volume floor applies), one to four cores, and each run parked in a
// random stage. A few runs are marked done.
func randomEngine(rng *rand.Rand) *Engine {
	cfg := DefaultConfig()
	cfg.Seed = rng.Int63()
	cfg.SharedScans = rng.Intn(2) == 0
	cfg.Cores = 1 + rng.Intn(4)
	e := NewEngine(cfg)
	e.setSpoiler(1 + rng.Intn(5))
	tables := []string{"a", "b", "c"}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		spec := QuerySpec{
			TemplateID:      i,
			WorkingSetBytes: rng.Float64() * 3 * (1 << 30),
			WorkingSetReuse: rng.Float64() * 4,
		}
		if rng.Intn(4) == 0 {
			spec.WorkingSetBytes = 0
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			st := Stage{Kind: StageKind(rng.Intn(4))}
			switch st.Kind {
			case StageSeqIO:
				st.Table, st.Amount = tables[rng.Intn(len(tables))], rng.Float64()*(1<<31)
			case StageRandIO:
				st.Table, st.Amount = tables[rng.Intn(len(tables))], rng.Float64()*1e4
			case StageCachedIO:
				st.Amount = rng.Float64() * (1 << 30)
			case StageCPU:
				st.Amount = rng.Float64() * 10
			}
			if rng.Intn(8) == 0 {
				st.Amount = 0
			}
			spec.Stages = append(spec.Stages, st)
		}
		r := e.addRun(spec, i)
		r.stageIdx = rng.Intn(len(r.spec.Stages))
		r.done = rng.Intn(10) == 0
	}
	return e
}

func TestRatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		e := randomEngine(rng)
		wantP, wantS := referenceRates(e)
		gotP, gotS := e.rates()
		for i := range e.runs {
			if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) ||
				math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) {
				t.Fatalf("trial %d run %d: rates (%v, %v), reference (%v, %v)",
					trial, i, gotP[i], gotS[i], wantP[i], wantS[i])
			}
		}
	}
}

// steadyMix is a five-stream mix over two shared fact tables with random
// I/O, cached and CPU stages and working sets that overcommit memory,
// plus its restart specs (the restart cost prepended).
func steadyMix() (mix, restart []QuerySpec) {
	const gb = 1 << 30
	mix = []QuerySpec{
		{TemplateID: 1, WorkingSetBytes: 2 * gb, WorkingSetReuse: 2, Stages: []Stage{
			{Kind: StageSeqIO, Table: "store_sales", Amount: 2 * gb}, {Kind: StageCPU, Amount: 3}}},
		{TemplateID: 2, WorkingSetBytes: 3 * gb, WorkingSetReuse: 1.5, Stages: []Stage{
			{Kind: StageSeqIO, Table: "store_sales", Amount: gb}, {Kind: StageRandIO, Table: "item", Amount: 2000}}},
		{TemplateID: 3, WorkingSetBytes: gb, WorkingSetReuse: 1, Stages: []Stage{
			{Kind: StageCachedIO, Amount: gb}, {Kind: StageCPU, Amount: 5},
			{Kind: StageSeqIO, Table: "catalog_sales", Amount: 1.5 * gb}}},
		{TemplateID: 4, Stages: []Stage{
			{Kind: StageRandIO, Table: "item", Amount: 5000}, {Kind: StageCPU, Amount: 2}}},
		{TemplateID: 5, WorkingSetBytes: 2.5 * gb, WorkingSetReuse: 3, Stages: []Stage{
			{Kind: StageSeqIO, Table: "catalog_sales", Amount: 3 * gb}}},
	}
	cost := []Stage{{Kind: StageCPU, Amount: 1.5}, {Kind: StageSeqIO, Table: "dim_cache", Amount: 150 << 20}}
	restart = make([]QuerySpec, len(mix))
	for i, q := range mix {
		restart[i] = q
		restart[i].Stages = append(append([]Stage(nil), cost...), q.Stages...)
	}
	return mix, restart
}

// stepAndRestart is one steady-state event: a step, then a fresh
// instance for every stream that completed.
func stepAndRestart(tb testing.TB, e *Engine, restart []QuerySpec) {
	done, ok := e.step()
	if !ok {
		tb.Fatal("steady state stalled")
	}
	for _, r := range done {
		e.addRun(restart[r.stream], r.stream)
	}
}

// warmSteadyEngine starts the mix and runs it until the engine's scratch
// and free list have reached their steady size.
func warmSteadyEngine(tb testing.TB) (*Engine, []QuerySpec) {
	mix, restart := steadyMix()
	e := NewEngine(DefaultConfig())
	e.reset()
	for i, q := range mix {
		e.addRun(q, i)
	}
	for i := 0; i < 1000; i++ {
		stepAndRestart(tb, e, restart)
	}
	return e, restart
}

func TestWarmStepDoesNotAllocate(t *testing.T) {
	e, restart := warmSteadyEngine(t)
	// One measured run of 1000 events: a single allocation anywhere in
	// them reads as 1.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			stepAndRestart(t, e, restart)
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 warm steady-state events allocated %v times, want 0", allocs)
	}
}

// BenchmarkSteadyState times one event of a warm steady-state mix: the
// rate computation, the step and the restarts it triggers.
func BenchmarkSteadyState(b *testing.B) {
	e, restart := warmSteadyEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepAndRestart(b, e, restart)
	}
}
