package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Persistence: a trained predictor — the knowledge base plus its reference
// QS models — serializes to JSON, so the (simulated or real) sampling cost
// is paid once and reused across processes. This is what a deployed
// Contender would ship alongside the DBMS: a model file, re-trained only
// when the workload drifts.

// snapshotVersion guards against loading incompatible files.
const snapshotVersion = 1

// Snapshot is the serialized form of a trained predictor.
type Snapshot struct {
	Version   int                `json:"version"`
	Templates []TemplateSnapshot `json:"templates"`
	ScanTimes map[string]float64 `json:"scan_times"`
	Models    []modelSnapshot    `json:"models"`
}

// KnowledgeSnapshot is the serialized form of a knowledge base alone
// (templates and scan times, no trained models). Its encoding is canonical
// — templates ascending by ID, scans and spoiler samples sorted — so two
// equal knowledge bases marshal to identical bytes, which is how the
// parallel-sampling determinism tests compare worker counts and how the
// checkpoint/resume tests compare interrupted campaigns against
// uninterrupted ones.
type KnowledgeSnapshot struct {
	Templates []TemplateSnapshot `json:"templates"`
	ScanTimes map[string]float64 `json:"scan_times"`
}

// TemplateSnapshot is the canonical serialized form of one template's
// isolated statistics: scan sets and spoiler samples are sorted, so equal
// stats marshal to identical bytes. The training checkpoints reuse this
// encoding to persist partially collected campaigns.
type TemplateSnapshot struct {
	ID              int      `json:"id"`
	IsolatedLatency float64  `json:"isolated_latency"`
	IOFraction      float64  `json:"io_fraction"`
	WorkingSetBytes float64  `json:"working_set_bytes"`
	PlanSteps       int      `json:"plan_steps"`
	RecordsAccessed float64  `json:"records_accessed"`
	Scans           []string `json:"scans"`
	// Unscanned lists the tables the scan set holds as false. The CQI
	// kernel still counts such an entry on the concurrent side
	// (Eqs. 2–3), so it round-trips apart from Scans.
	Unscanned []string        `json:"unscanned,omitempty"`
	Spoilers  []SpoilerSample `json:"spoilers"`
}

// SpoilerSample is one measured spoiler latency at an MPL.
type SpoilerSample struct {
	MPL     int     `json:"mpl"`
	Latency float64 `json:"latency"`
}

type modelSnapshot struct {
	MPL      int     `json:"mpl"`
	Template int     `json:"template"`
	Mu       float64 `json:"mu"`
	B        float64 `json:"b"`
}

// NewTemplateSnapshot converts template stats to their canonical snapshot
// form (sorted scan set and spoiler samples).
func NewTemplateSnapshot(t TemplateStats) TemplateSnapshot {
	ts := TemplateSnapshot{
		ID:              t.ID,
		IsolatedLatency: t.IsolatedLatency,
		IOFraction:      t.IOFraction,
		WorkingSetBytes: t.WorkingSetBytes,
		PlanSteps:       t.PlanSteps,
		RecordsAccessed: t.RecordsAccessed,
	}
	for f, scanned := range t.Scans {
		if scanned {
			ts.Scans = append(ts.Scans, f)
		} else {
			ts.Unscanned = append(ts.Unscanned, f)
		}
	}
	sort.Strings(ts.Scans)
	sort.Strings(ts.Unscanned)
	for mpl, l := range t.SpoilerLatency {
		ts.Spoilers = append(ts.Spoilers, SpoilerSample{mpl, l})
	}
	sort.Slice(ts.Spoilers, func(i, j int) bool { return ts.Spoilers[i].MPL < ts.Spoilers[j].MPL })
	return ts
}

// Stats converts the snapshot back to template stats.
func (ts TemplateSnapshot) Stats() TemplateStats {
	t := TemplateStats{
		ID:              ts.ID,
		IsolatedLatency: ts.IsolatedLatency,
		IOFraction:      ts.IOFraction,
		WorkingSetBytes: ts.WorkingSetBytes,
		PlanSteps:       ts.PlanSteps,
		RecordsAccessed: ts.RecordsAccessed,
		Scans:           make(map[string]bool, len(ts.Scans)+len(ts.Unscanned)),
		SpoilerLatency:  make(map[int]float64, len(ts.Spoilers)),
	}
	for _, f := range ts.Scans {
		t.Scans[f] = true
	}
	for _, f := range ts.Unscanned {
		t.Scans[f] = false
	}
	for _, sp := range ts.Spoilers {
		t.SpoilerLatency[sp.MPL] = sp.Latency
	}
	return t
}

// Snapshot captures the knowledge base's full state in canonical order.
func (k *Knowledge) Snapshot() *KnowledgeSnapshot {
	s := &KnowledgeSnapshot{ScanTimes: make(map[string]float64)}
	for f, v := range k.scanSeconds {
		s.ScanTimes[f] = v
	}
	for _, id := range k.IDs() {
		s.Templates = append(s.Templates, NewTemplateSnapshot(k.templates[id]))
	}
	return s
}

// Snapshot captures the predictor's full trained state.
func (p *Predictor) Snapshot() *Snapshot {
	ks := p.know.Snapshot()
	s := &Snapshot{Version: snapshotVersion, Templates: ks.Templates, ScanTimes: ks.ScanTimes}
	for _, mpl := range p.MPLs() {
		refs := p.refs[mpl]
		for _, id := range refs.IDs() {
			m, _ := refs.Model(id)
			s.Models = append(s.Models, modelSnapshot{MPL: mpl, Template: id, Mu: m.Mu, B: m.B})
		}
	}
	return s
}

// WriteSnapshot serializes the predictor as indented JSON.
func (p *Predictor) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.Snapshot()); err != nil {
		return fmt.Errorf("core: encoding predictor: %w", err)
	}
	return nil
}

// LoadPredictor reconstructs a trained predictor from a snapshot stream.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	return PredictorFromSnapshot(&s)
}

// badLatency reports values no measurement can produce (NaN, ±Inf, or
// negative).
func badLatency(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

// Validate checks the snapshot for structural corruption before any state
// is built from it: version mismatch, NaN/negative latencies or scan
// times, duplicate template IDs, and models referencing templates the
// snapshot does not carry. Errors name the offending entry so a corrupted
// model file is diagnosable, not just rejected.
func (s *Snapshot) Validate() error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	if len(s.Templates) == 0 {
		return fmt.Errorf("core: snapshot has no templates")
	}
	seen := make(map[int]bool, len(s.Templates))
	for _, ts := range s.Templates {
		if seen[ts.ID] {
			return fmt.Errorf("core: snapshot has duplicate template id %d", ts.ID)
		}
		seen[ts.ID] = true
		if badLatency(ts.IsolatedLatency) {
			return fmt.Errorf("core: template %d has invalid isolated latency %g", ts.ID, ts.IsolatedLatency)
		}
		for _, sp := range ts.Spoilers {
			if badLatency(sp.Latency) {
				return fmt.Errorf("core: template %d has invalid spoiler latency %g at MPL %d", ts.ID, sp.Latency, sp.MPL)
			}
		}
	}
	for table, v := range s.ScanTimes {
		if badLatency(v) {
			return fmt.Errorf("core: scan time of %q is invalid (%g)", table, v)
		}
	}
	for _, m := range s.Models {
		if !seen[m.Template] {
			return fmt.Errorf("core: model at MPL %d references unknown template %d", m.MPL, m.Template)
		}
		if math.IsNaN(m.Mu) || math.IsNaN(m.B) {
			return fmt.Errorf("core: model for template %d at MPL %d has NaN coefficients", m.Template, m.MPL)
		}
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("core: snapshot has no reference models")
	}
	return nil
}

// PredictorFromSnapshot validates the snapshot and rebuilds the predictor
// from it, serving index included.
func PredictorFromSnapshot(s *Snapshot) (*Predictor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	templates := make([]TemplateStats, len(s.Templates))
	for i, ts := range s.Templates {
		templates[i] = ts.Stats()
	}
	know := NewKnowledge(s.ScanTimes, templates)
	models := make(map[int]map[int]QSModel)
	for _, m := range s.Models {
		if models[m.MPL] == nil {
			models[m.MPL] = make(map[int]QSModel)
		}
		models[m.MPL][m.Template] = QSModel{Mu: m.Mu, B: m.B}
	}
	return newPredictor(know, models), nil
}
