package core

import "fmt"

// This file implements the paper's second future-work direction (Section
// 8): CQPP "at the granularity of individual query execution plan nodes".
// The paper notes this would make the models finer-grained but requires
// reasoning about which operators compete with which; the CQI machinery
// supplies exactly that reasoning.
//
// The operator-level model decomposes a template into stage profiles (the
// per-operator isolated time split that EXPLAIN ANALYZE-style
// instrumentation provides on a real system) and predicts each stage's
// concurrent duration analytically:
//
//   - CPU and buffer-resident stages are unaffected by I/O contention;
//   - a sequential scan of table f is slowed by the expected number of
//     competing I/O streams — the summed CQI intensities of the concurrent
//     queries, except those that scan f themselves, since they ride the
//     same shared stream (a positive interaction CQI's template-level
//     average cannot credit to a specific operator);
//   - random I/O is slowed by all competing streams.
//
// Unlike the QS path, this model needs NO concurrent training samples at
// all — but it also has no way to learn memory effects, which is where the
// learned QS models earn their keep (experiment ext-opmodel quantifies the
// trade on both axes).

// StageClass classifies a stage profile.
type StageClass int

// Stage classes.
const (
	// StageClassSeqIO is a sequential scan of a (fact) table.
	StageClassSeqIO StageClass = iota
	// StageClassRandIO is random-access I/O (index scans).
	StageClassRandIO
	// StageClassCPU is computation.
	StageClassCPU
	// StageClassCached reads buffer-resident data.
	StageClassCached
)

// String returns the class name.
func (c StageClass) String() string {
	switch c {
	case StageClassSeqIO:
		return "SeqIO"
	case StageClassRandIO:
		return "RandIO"
	case StageClassCPU:
		return "CPU"
	case StageClassCached:
		return "Cached"
	default:
		return fmt.Sprintf("StageClass(%d)", int(c))
	}
}

// StageProfile is one operator's isolated-execution footprint: what kind of
// work it does, on which table (for sequential scans), and how long it
// takes with no contention.
type StageProfile struct {
	Class           StageClass
	Table           string
	IsolatedSeconds float64
}

// Validate reports structural problems.
func (s StageProfile) Validate() error {
	if s.IsolatedSeconds < 0 {
		return fmt.Errorf("core: stage has negative isolated time %g", s.IsolatedSeconds)
	}
	if s.Class == StageClassSeqIO && s.Table == "" {
		return fmt.Errorf("core: sequential stage has no table")
	}
	return nil
}

// OperatorModel predicts concurrent latency from per-operator stage
// profiles, with zero training samples.
type OperatorModel struct {
	know *Knowledge
}

// NewOperatorModel binds the model to a knowledge base (it needs the
// concurrent templates' isolated statistics and scan sets to compute
// per-stage intensities).
func NewOperatorModel(know *Knowledge) *OperatorModel {
	return &OperatorModel{know: know}
}

// Predict estimates the end-to-end latency of a query described by stages
// when it runs with the given concurrent templates.
func (m *OperatorModel) Predict(primary TemplateStats, stages []StageProfile, concurrent []int) (float64, error) {
	if len(stages) == 0 {
		return 0, fmt.Errorf("core: no stage profiles for template %d", primary.ID)
	}
	// Per-competitor intensity, as in Eq. 4: the CQI kernel's terms
	// against the primary's transient row.
	idx := m.know.idx
	intensities := make([]float64, len(concurrent))
	row := idx.adhocRow(primary.Scans)
	if _, err := idx.cqiSlot(&row, concurrent, intensities); err != nil {
		return 0, err
	}

	var total float64
	for _, st := range stages {
		if err := st.Validate(); err != nil {
			return 0, err
		}
		switch st.Class {
		case StageClassCPU, StageClassCached:
			total += st.IsolatedSeconds
		case StageClassSeqIO:
			tid, interned := idx.tableID[st.Table]
			load := 0.0
			for i, id := range concurrent {
				if interned && idx.scanBit(idx.posOf(id), tid) {
					// Shares this scan's stream: no extra disk load for
					// this stage.
					continue
				}
				load += intensities[i]
			}
			total += st.IsolatedSeconds * (1 + load)
		case StageClassRandIO:
			load := 0.0
			for _, r := range intensities {
				load += r
			}
			total += st.IsolatedSeconds * (1 + load)
		default:
			return 0, fmt.Errorf("core: unknown stage class %v", st.Class)
		}
	}
	return total, nil
}
