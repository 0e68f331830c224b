package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the fixed histogram bounds (seconds) used
// for every span-duration histogram: exponential from 100µs to ~100s,
// wide enough for both sub-millisecond serving calls and multi-second
// simulated campaign phases.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// ServeLatencyBuckets are the bounds for serve.* span-duration series:
// DefaultLatencyBuckets with sub-microsecond bounds (100ns…50µs)
// prepended. A warm prediction span runs tens of nanoseconds, so under
// the default bounds every serving span collapsed into the first
// (100µs) bucket and the latency histograms carried no information;
// these bounds resolve the nanosecond regime while keeping the slow
// tail identical to every other span family.
var ServeLatencyBuckets = append([]float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
}, DefaultLatencyBuckets...)

// atomicFloat64 is a float64 with atomic Add/Set built on CAS over the
// IEEE-754 bits.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat64) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}
func (f *atomicFloat64) Add(delta float64) float64 {
	for {
		old := f.bits.Load()
		next := math.Float64frombits(old) + delta
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored to
// keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a floating-point metric that can move both ways.
type Gauge struct{ v atomicFloat64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative-style buckets.
// All methods are lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf after
	counts []atomic.Uint64
	sum    atomicFloat64
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns cumulative bucket counts aligned with bounds plus a
// final +Inf bucket.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.bounds)+1),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, Count: cum}
	}
	return s
}

// Bucket is one cumulative histogram bucket: Count observations ≤ Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket. Rough, but good enough for dashboards.
// Out-of-range q is clamped to [0, 1]; empty histograms and NaN q
// return 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	prevCum, prevLe := uint64(0), 0.0
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.Le, 1) {
				return prevLe
			}
			width := float64(b.Count - prevCum)
			if width == 0 {
				return b.Le
			}
			return prevLe + (b.Le-prevLe)*(rank-float64(prevCum))/width
		}
		prevCum, prevLe = b.Count, b.Le
	}
	return prevLe
}

// Snapshot is a consistent-enough copy of a Registry's state. Map keys
// are the exposition identities: `name` for unlabeled metrics and
// `name{label="value"}` for labeled ones.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value (0 when absent), e.g.
// snap.Counter(`contender_spans_total{span="train.mix"}`).
func (s Snapshot) Counter(key string) int64 { return s.Counters[key] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(key string) float64 { return s.Gauges[key] }

// Histogram returns the named histogram snapshot (zero when absent).
func (s Snapshot) Histogram(key string) HistogramSnapshot { return s.Histograms[key] }

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

// family is one named metric with at most one label dimension; series
// maps label values ("" for the unlabeled singleton) to live metrics.
type family struct {
	name   string
	help   string
	label  string // "" means unlabeled singleton
	typ    metricType
	bounds []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any
}

func (f *family) get(labelValue string) any {
	f.mu.RLock()
	m, ok := f.series[labelValue]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[labelValue]; ok {
		return m
	}
	var m2 any
	switch f.typ {
	case typeCounter:
		m2 = &Counter{}
	case typeGauge:
		m2 = &Gauge{}
	case typeHistogram:
		m2 = newHistogram(f.bounds)
	}
	f.series[labelValue] = m2
	return m2
}

// getHist is get for histogram families with per-series bounds: the
// series is created with the given bounds when absent.
func (f *family) getHist(labelValue string, bounds []float64) any {
	f.mu.RLock()
	m, ok := f.series[labelValue]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[labelValue]; ok {
		return m
	}
	m2 := newHistogram(bounds)
	f.series[labelValue] = m2
	return m2
}

// key renders the exposition identity for a label value.
func (f *family) key(labelValue string) string {
	if f.label == "" {
		return f.name
	}
	return f.name + "{" + f.label + "=" + promEscape(labelValue) + "}"
}

// promEscape renders a label value for the Prometheus text exposition
// format: only backslash, double quote, and newline are escaped, and
// everything else — including non-ASCII UTF-8 — passes through
// verbatim. strconv.Quote is NOT format-compliant here: it escapes
// non-printable and non-ASCII runes to \xNN/\uNNNN sequences, which
// Prometheus would read as literal backslash-u text.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return `"` + v + `"`
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Registry holds named metric families. All methods are safe for
// concurrent use; registering the same name twice returns the existing
// family (a type mismatch panics — it is a programming error).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

func (r *Registry) family(name, help, label string, typ metricType, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.fams[name]
		if !ok {
			f = &family{name: name, help: help, label: label, typ: typ, bounds: bounds, series: map[string]any{}}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label", name))
	}
	return f
}

// Counter returns (registering on first use) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, "", typeCounter, nil).get("").(*Counter)
}

// Gauge returns the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, "", typeGauge, nil).get("").(*Gauge)
}

// Histogram returns the unlabeled histogram name with the given bucket
// bounds (DefaultLatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return r.family(name, help, "", typeHistogram, bounds).get("").(*Histogram)
}

// CounterVec declares a counter family with a single label dimension.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, label, typeCounter, nil)}
}

// With returns the counter for one label value.
func (v *CounterVec) With(labelValue string) *Counter { return v.f.get(labelValue).(*Counter) }

// GaugeVec declares a gauge family with a single label dimension.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(name, help, label, typeGauge, nil)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(labelValue string) *Gauge { return v.f.get(labelValue).(*Gauge) }

// HistogramVec declares a histogram family with a single label dimension.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family name
// (DefaultLatencyBuckets when bounds is nil).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &HistogramVec{r.family(name, help, label, typeHistogram, bounds)}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.get(labelValue).(*Histogram) }

// WithBuckets returns the histogram for one label value, creating the
// series with the given bucket bounds instead of the family default
// when it does not exist yet. A series that already exists keeps its
// original bounds — bounds are fixed at first observation, exactly like
// a family's. The exposition formats carry bounds per series, so
// heterogeneous families render correctly.
func (v *HistogramVec) WithBuckets(labelValue string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = v.f.bounds
	}
	return v.f.getHist(labelValue, bounds).(*Histogram)
}

// sortedFamilies returns families in name order (stable exposition).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Snapshot copies every live series. Counters, gauges, and histograms
// are read atomically per series (not transactionally across series).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, f := range r.sortedFamilies() {
		for _, lv := range f.sortedSeries() {
			key := f.key(lv)
			switch m := f.get(lv).(type) {
			case *Counter:
				snap.Counters[key] = m.Value()
			case *Gauge:
				snap.Gauges[key] = m.Value()
			case *Histogram:
				snap.Histograms[key] = m.snapshot()
			}
		}
	}
	return snap
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (v0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		typ := "counter"
		switch f.typ {
		case typeGauge:
			typ = "gauge"
		case typeHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		for _, lv := range f.sortedSeries() {
			label := ""
			if f.label != "" {
				label = "{" + f.label + "=" + promEscape(lv) + "}"
			}
			switch m := f.get(lv).(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, label, m.Value()); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, label, formatFloat(m.Value())); err != nil {
					return err
				}
			case *Histogram:
				if err := writePromHistogram(w, f, lv, m.snapshot()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, f *family, lv string, s HistogramSnapshot) error {
	for _, b := range s.Buckets {
		le := "+Inf"
		if !math.IsInf(b.Le, 1) {
			le = formatFloat(b.Le)
		}
		var labels string
		if f.label != "" {
			labels = "{" + f.label + "=" + promEscape(lv) + ",le=" + promEscape(le) + "}"
		} else {
			labels = "{le=" + promEscape(le) + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, b.Count); err != nil {
			return err
		}
	}
	var suffix string
	if f.label != "" {
		suffix = "{" + f.label + "=" + promEscape(lv) + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		f.name, suffix, formatFloat(s.Sum), f.name, suffix, s.Count); err != nil {
		return err
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ExpvarFunc adapts the registry to expvar: publish it once with
// expvar.Publish(name, registry.ExpvarFunc()). JSON has no infinity, so
// in this form each histogram's implicit last bucket bound renders as
// the string "+Inf" (the Prometheus spelling); every other value is the
// Snapshot's.
func (r *Registry) ExpvarFunc() expvar.Func {
	return expvar.Func(func() any {
		snap := r.Snapshot()
		view := expvarSnapshot{
			Counters:   snap.Counters,
			Gauges:     snap.Gauges,
			Histograms: make(map[string]expvarHistogram, len(snap.Histograms)),
		}
		for key, h := range snap.Histograms {
			buckets := make([]expvarBucket, len(h.Buckets))
			for i, b := range h.Buckets {
				buckets[i] = expvarBucket{Le: b.Le, Count: b.Count}
				if math.IsInf(b.Le, 1) {
					buckets[i].Le = "+Inf"
				}
			}
			view.Histograms[key] = expvarHistogram{Count: h.Count, Sum: h.Sum, Buckets: buckets}
		}
		return view
	})
}

// expvarSnapshot mirrors Snapshot with JSON-encodable bucket bounds.
type expvarSnapshot struct {
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]expvarHistogram `json:"histograms,omitempty"`
}

type expvarHistogram struct {
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets []expvarBucket `json:"buckets"`
}

// expvarBucket is Bucket with Le a float64, or "+Inf" for the last bound.
type expvarBucket struct {
	Le    any    `json:"le"`
	Count uint64 `json:"count"`
}

// ServeHTTP exposes the registry in Prometheus text format, making a
// *Registry mountable directly on an http.ServeMux.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// decPositive subtracts one unless the value is already ≤ 0, in one
// CAS: a check-then-store pair would let a concurrent Add land between.
func (f *atomicFloat64) decPositive() {
	for {
		old := f.bits.Load()
		v := math.Float64frombits(old)
		if v <= 0 || f.bits.CompareAndSwap(old, math.Float64bits(v-1)) {
			return
		}
	}
}

// handles is a copy-on-write map from a taxonomy name to its resolved
// series. Readers load the current map without a lock; the first event
// of a new name publishes a copy with one more entry. Resolution goes
// through the registry, which returns the same series to every racer,
// so a lost publish race costs a copy and nothing else.
type handles[V any] struct{ p atomic.Pointer[map[string]V] }

func (h *handles[V]) get(name string) (V, bool) {
	if m := h.p.Load(); m != nil {
		v, ok := (*m)[name]
		return v, ok
	}
	var zero V
	return zero, false
}

// add publishes v under name unless a racer already did, and returns
// the published value.
func (h *handles[V]) add(name string, v V) V {
	for {
		old := h.p.Load()
		next := map[string]V{name: v}
		if old != nil {
			if cur, ok := (*old)[name]; ok {
				return cur
			}
			for k, x := range *old {
				next[k] = x
			}
		}
		if h.p.CompareAndSwap(old, &next) {
			return v
		}
	}
}

// endSeries are one span name's SpanEnd series.
type endSeries struct {
	count *Counter
	dur   *Histogram
}

// pointSeries are one point name's series: its events_total counter
// and, for the resilience and drift points, the convenience total.
type pointSeries struct {
	count, total *Counter
}

// Metrics is the canonical Observer that folds the event stream into a
// Registry:
//
//	contender_spans_total{span=...}            completed spans
//	contender_span_errors_total{span=...}      spans that ended in error
//	contender_span_duration_seconds{span=...}  latency histogram per span
//	contender_inflight_spans{span=...}         begun-but-unfinished spans
//	contender_events_total{event=...}          point events by name
//	contender_retries_total                    convenience totals for the
//	contender_quarantines_total                resilience machinery
//	contender_checkpoint_writes_total
//	contender_resumed_total
//	contender_drift_transitions_total          quality.drift points (the
//	                                           per-template breakdown
//	                                           lives in *Quality)
//
// Each name's series are resolved once, at the event that creates them,
// into lock-free handle maps; after that an event costs one map load
// and the atomic bumps. The inflight gauge is the open-span count
// itself, so it never disagrees with it.
type Metrics struct {
	reg *Registry

	spans    *CounterVec
	spanErrs *CounterVec
	spanDur  *HistogramVec
	inflight *GaugeVec
	events   *CounterVec

	retries     *Counter
	quarantines *Counter
	checkpoints *Counter
	resumes     *Counter
	drifts      *Counter

	ends   handles[endSeries]   // by span, from its first SpanEnd
	errs   handles[*Counter]    // by span, from its first errored SpanEnd
	open   handles[*Gauge]      // by span, from its first SpanBegin
	points handles[pointSeries] // by point name, from its first Point
}

// NewMetrics returns a Metrics observer over a fresh Registry.
func NewMetrics() *Metrics {
	reg := NewRegistry()
	return &Metrics{
		reg:         reg,
		spans:       reg.CounterVec("contender_spans_total", "Completed spans by taxonomy name.", "span"),
		spanErrs:    reg.CounterVec("contender_span_errors_total", "Spans that ended in error, by taxonomy name.", "span"),
		spanDur:     reg.HistogramVec("contender_span_duration_seconds", "Span latency by taxonomy name.", "span", nil),
		inflight:    reg.GaugeVec("contender_inflight_spans", "Spans begun but not yet finished, by taxonomy name.", "span"),
		events:      reg.CounterVec("contender_events_total", "Point events by taxonomy name.", "event"),
		retries:     reg.Counter("contender_retries_total", "Retryable measurement failures that backed off and retried."),
		quarantines: reg.Counter("contender_quarantines_total", "Measurement sites quarantined after exhausting retries."),
		checkpoints: reg.Counter("contender_checkpoint_writes_total", "Measurements flushed to the write-through checkpoint."),
		resumes:     reg.Counter("contender_resumed_total", "Measurements replayed from a checkpoint instead of re-run."),
		drifts:      reg.Counter("contender_drift_transitions_total", "Prediction-quality drift state transitions across all templates."),
	}
}

// Event folds one event into the registry.
func (m *Metrics) Event(ev Event) {
	switch ev.Kind {
	case SpanBegin:
		g, ok := m.open.get(ev.Span)
		if !ok {
			g = m.open.add(ev.Span, m.inflight.With(ev.Span))
		}
		g.Add(1)
	case SpanEnd:
		// Serving spans emit End without Begin; only a gauge a Begin
		// created is decremented, and never below 0.
		if g, ok := m.open.get(ev.Span); ok {
			g.v.decPositive()
		}
		s, ok := m.ends.get(ev.Span)
		if !ok {
			s = m.ends.add(ev.Span, m.resolveEnd(ev.Span))
		}
		s.count.Inc()
		if ev.Err != "" {
			c, ok := m.errs.get(ev.Span)
			if !ok {
				c = m.errs.add(ev.Span, m.spanErrs.With(ev.Span))
			}
			c.Inc()
		}
		s.dur.Observe(ev.Dur.Seconds())
	case Point:
		p, ok := m.points.get(ev.Span)
		if !ok {
			p = m.points.add(ev.Span, m.resolvePoint(ev.Span))
		}
		p.count.Inc()
		if p.total != nil {
			p.total.Inc()
		}
	}
}

// resolveEnd creates (or finds) a span's counter and duration series.
// serve.* spans finish in nanoseconds, so their duration series get
// sub-microsecond resolution; other spans keep the family's bounds.
func (m *Metrics) resolveEnd(span string) endSeries {
	s := endSeries{count: m.spans.With(span)}
	if strings.HasPrefix(span, "serve.") {
		s.dur = m.spanDur.WithBuckets(span, ServeLatencyBuckets)
	} else {
		s.dur = m.spanDur.With(span)
	}
	return s
}

// resolvePoint creates (or finds) a point's series.
func (m *Metrics) resolvePoint(name string) pointSeries {
	p := pointSeries{count: m.events.With(name)}
	switch name {
	case PointTrainRetry:
		p.total = m.retries
	case PointTrainQuarantine:
		p.total = m.quarantines
	case PointTrainCheckpoint:
		p.total = m.checkpoints
	case PointTrainResume:
		p.total = m.resumes
	case PointQualityDrift:
		p.total = m.drifts
	}
	return p
}

// Registry exposes the underlying registry (for mounting extra series
// or custom exposition).
func (m *Metrics) Registry() *Registry { return m.reg }

// Snapshot copies the current metric state.
func (m *Metrics) Snapshot() Snapshot { return m.reg.Snapshot() }

// WritePrometheus renders the metrics in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// ServeHTTP makes *Metrics an http.Handler serving Prometheus text.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.reg.ServeHTTP(w, r) }
