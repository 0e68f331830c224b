package core

import (
	"strings"
	"testing"
)

func TestOperatorModelHandComputed(t *testing.T) {
	k := testKnowledge()
	om := NewOperatorModel(k)
	primary := k.templates[1] // scans F

	stages := []StageProfile{
		{Class: StageClassCached, IsolatedSeconds: 1},
		{Class: StageClassSeqIO, Table: "F", IsolatedSeconds: 100},
		{Class: StageClassCPU, IsolatedSeconds: 40},
		{Class: StageClassRandIO, IsolatedSeconds: 10},
	}

	// Concurrent T3 (scans G, r_3 = 1.0):
	// cached 1 + seq 100·(1+1.0) + cpu 40 + rand 10·(1+1.0) = 261.
	got, err := om.Predict(primary, stages, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 261, 1e-9) {
		t.Fatalf("predicted %g, want 261", got)
	}

	// Concurrent T2 (scans F and G): it shares the primary's F scan, so
	// the seq stage sees no extra load; its intensity r_2 = 0.65 hits only
	// the random stage: 1 + 100 + 40 + 10·1.65 = 157.5.
	got, err = om.Predict(primary, stages, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 157.5, 1e-9) {
		t.Fatalf("predicted %g, want 157.5", got)
	}
}

func TestOperatorModelIsolation(t *testing.T) {
	k := testKnowledge()
	om := NewOperatorModel(k)
	stages := []StageProfile{
		{Class: StageClassSeqIO, Table: "F", IsolatedSeconds: 100},
		{Class: StageClassCPU, IsolatedSeconds: 50},
	}
	got, err := om.Predict(k.templates[1], stages, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 150, 1e-9) {
		t.Fatalf("isolated prediction %g, want the stage sum 150", got)
	}
}

func TestOperatorModelErrors(t *testing.T) {
	k := testKnowledge()
	om := NewOperatorModel(k)
	p := k.templates[1]
	if _, err := om.Predict(p, nil, nil); err == nil {
		t.Fatal("no stages must error")
	}
	bad := []StageProfile{{Class: StageClassSeqIO, IsolatedSeconds: 1}} // no table
	if _, err := om.Predict(p, bad, nil); err == nil {
		t.Fatal("sequential stage without table must error")
	}
	neg := []StageProfile{{Class: StageClassCPU, IsolatedSeconds: -1}}
	if _, err := om.Predict(p, neg, nil); err == nil {
		t.Fatal("negative time must error")
	}
	unknown := []StageProfile{{Class: StageClass(99), IsolatedSeconds: 1}}
	if _, err := om.Predict(p, unknown, nil); err == nil {
		t.Fatal("unknown class must error")
	}
}

func TestStageClassString(t *testing.T) {
	for c, want := range map[StageClass]string{
		StageClassSeqIO:  "SeqIO",
		StageClassRandIO: "RandIO",
		StageClassCPU:    "CPU",
		StageClassCached: "Cached",
	} {
		if c.String() != want {
			t.Fatalf("%d → %q, want %q", int(c), c.String(), want)
		}
	}
	if !strings.Contains(StageClass(42).String(), "42") {
		t.Fatal("unknown class must render its number")
	}
}
