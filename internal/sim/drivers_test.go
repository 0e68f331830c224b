package sim

import (
	"testing"
)

func TestMeasureScanTime(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	s, err := e.MeasureScanTime("t", cfg.SeqBandwidth*7)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s, 7, 1e-9) {
		t.Fatalf("scan time %g, want 7", s)
	}
}

func TestSteadyStateCollectsRequestedSamples(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	mix := []QuerySpec{
		ioSpec(1, "a", cfg.SeqBandwidth*5),
		ioSpec(2, "b", cfg.SeqBandwidth*15),
	}
	res, err := e.RunSteadyState(mix, SteadyStateOptions{Samples: 4, WarmupSkip: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mix {
		if len(res.Samples[i]) != 4 {
			t.Fatalf("stream %d has %d samples, want 4", i, len(res.Samples[i]))
		}
		for _, l := range res.Samples[i] {
			if !(l > 0) {
				t.Fatalf("stream %d sampled latency %g, want positive", i, l)
			}
		}
		if res.MeanLatency(i) <= 0 {
			t.Fatalf("stream %d mean not positive", i)
		}
	}
	if res.Duration <= 0 {
		t.Fatal("duration must be positive")
	}
}

func TestSteadyStateKeepsMixConstant(t *testing.T) {
	// The short query must observe contention from the long one for ALL
	// its samples: every short-query latency should be ~2x its isolated
	// time (fair sharing with the long scanner on a disjoint table).
	cfg := quietConfig()
	e := NewEngine(cfg)
	short := ioSpec(1, "a", cfg.SeqBandwidth*2)
	long := ioSpec(2, "b", cfg.SeqBandwidth*200)
	res, err := e.RunSteadyState([]QuerySpec{short, long}, SteadyStateOptions{Samples: 5, WarmupSkip: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Samples[0] {
		if !almostEq(l, 4, 0.2) {
			t.Fatalf("short query latency %g, want ~4 under constant contention", l)
		}
	}
}

func TestSteadyStateRestartCost(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	spec := ioSpec(1, "a", cfg.SeqBandwidth*5)
	restart := []Stage{{Kind: StageCPU, Amount: 3}}
	res, err := e.RunSteadyState([]QuerySpec{spec}, SteadyStateOptions{
		Samples: 3, WarmupSkip: 1, RestartCost: restart,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every measured instance (post-warmup) carries the restart cost:
	// 5 s of I/O + 3 s of CPU.
	for _, l := range res.Samples[0] {
		if !almostEq(l, 8, 1e-6) {
			t.Fatalf("latency %g, want 8 with restart cost", l)
		}
	}
}

func TestSteadyStateErrors(t *testing.T) {
	e := NewEngine(quietConfig())
	if _, err := e.RunSteadyState(nil, SteadyStateOptions{}); err == nil {
		t.Fatal("expected error for empty mix")
	}
	if _, err := e.RunSteadyState([]QuerySpec{{}}, SteadyStateOptions{}); err == nil {
		t.Fatal("expected error for invalid spec")
	}
}

func TestSteadyStateDefaults(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	res, err := e.RunSteadyState([]QuerySpec{ioSpec(1, "a", cfg.SeqBandwidth)}, SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples[0]) != 5 {
		t.Fatalf("default sample count %d, want 5", len(res.Samples[0]))
	}
}

func TestStageKindString(t *testing.T) {
	names := map[StageKind]string{
		StageSeqIO:    "SeqIO",
		StageCachedIO: "CachedIO",
		StageRandIO:   "RandIO",
		StageCPU:      "CPU",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if StageKind(42).String() == "" {
		t.Fatal("unknown kind must render something")
	}
}

func TestTotalIOBytes(t *testing.T) {
	cfg := quietConfig()
	spec := QuerySpec{Stages: []Stage{
		{Kind: StageSeqIO, Table: "t", Amount: 1000},
		{Kind: StageRandIO, Table: "t", Amount: 10},
		{Kind: StageCachedIO, Amount: 5000}, // cached reads are not disk I/O
		{Kind: StageCPU, Amount: 3},
	}}
	want := 1000 + 10*cfg.PageBytes
	if got := spec.TotalIOBytes(cfg.PageBytes); got != want {
		t.Fatalf("TotalIOBytes = %g, want %g", got, want)
	}
}

func TestScannedTablesDedup(t *testing.T) {
	spec := QuerySpec{Stages: []Stage{
		{Kind: StageSeqIO, Table: "a", Amount: 1},
		{Kind: StageSeqIO, Table: "b", Amount: 1},
		{Kind: StageSeqIO, Table: "a", Amount: 1},
	}}
	tables := spec.ScannedTables()
	if len(tables) != 2 || tables[0] != "a" || tables[1] != "b" {
		t.Fatalf("ScannedTables = %v", tables)
	}
}

func TestRunBatchSerial(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	queue := []QuerySpec{
		ioSpec(1, "a", cfg.SeqBandwidth*5),
		ioSpec(2, "b", cfg.SeqBandwidth*10),
		ioSpec(3, "c", cfg.SeqBandwidth*15),
	}
	results, span, err := e.RunBatch(queue, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(span, 30, 1e-6) {
		t.Fatalf("serial makespan %g, want 30", span)
	}
	// Results are in queue order, back to back.
	if !almostEq(results[0].End, 5, 1e-6) || !almostEq(results[1].Start, 5, 1e-6) ||
		!almostEq(results[2].Start, 15, 1e-6) {
		t.Fatalf("windows wrong: %+v", results)
	}
}

func TestRunBatchConcurrent(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	// Two disjoint 10-s scans at MPL 2 share the disk: makespan ~20 s,
	// clearly below the serial 20... equal; use three: at MPL 2 the third
	// starts at the first completion.
	queue := []QuerySpec{
		ioSpec(1, "a", cfg.SeqBandwidth*10),
		ioSpec(2, "b", cfg.SeqBandwidth*10),
		ioSpec(3, "c", cfg.SeqBandwidth*10),
	}
	results, span, err := e.RunBatch(queue, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First two finish together at ~20; third runs alone afterwards: ~30.
	if !almostEq(span, 30, 0.5) {
		t.Fatalf("makespan %g, want ~30", span)
	}
	if results[2].Start < 19 {
		t.Fatalf("third job started at %g, must wait for a slot", results[2].Start)
	}
	for i := range queue {
		if results[i].TemplateID != i+1 {
			t.Fatal("results must be in queue order")
		}
	}
}

func TestRunBatchMPLCap(t *testing.T) {
	cfg := quietConfig()
	e := NewEngine(cfg)
	queue := []QuerySpec{
		ioSpec(1, "a", cfg.SeqBandwidth),
		ioSpec(2, "b", cfg.SeqBandwidth),
		ioSpec(3, "c", cfg.SeqBandwidth),
		ioSpec(4, "d", cfg.SeqBandwidth),
	}
	results, _, err := e.RunBatch(queue, 10) // cap above batch size
	if err != nil {
		t.Fatal(err)
	}
	// All start at once.
	for _, r := range results {
		if r.Start != 0 {
			t.Fatalf("job started at %g, want 0", r.Start)
		}
	}
}

func TestRunBatchErrors(t *testing.T) {
	e := NewEngine(quietConfig())
	if _, _, err := e.RunBatch(nil, 2); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, _, err := e.RunBatch([]QuerySpec{{}}, 2); err == nil {
		t.Fatal("invalid spec must error")
	}
}
