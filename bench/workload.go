package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"contender"
	"contender/internal/serve"
)

// The model every run serves: full sampling at MPLs 2–5 with seed 42,
// the same flags contender-serve is started with (-max-mpl 5 -seed 42).
// The workload seed only changes the requests.
var (
	modelMPLs = []int{2, 3, 4, 5}
	modelSeed = int64(42)
)

const (
	// ringLen is the number of requests each connection cycles through.
	ringLen = 1 << 16
	// batchMixes is the number of mixes in one batch-workload frame. Its
	// ring keeps ringLen mixes rather than ringLen frames (256 frames).
	batchMixes = 256
	// httpBatchMixes is the number of mixes in one predict_batch request
	// of the http workload.
	httpBatchMixes = 16
	// poolLen is the number of mixes whose ground truth each run
	// simulates: the mixed workload's feedback requests draw from them,
	// and every workload reports mre_pct over them.
	poolLen = 1024
	// maxConcurrent bounds a mix's concurrent templates (MPL ≤ 5).
	maxConcurrent = 4
)

// workload is one traffic mix: how many connections, how many requests
// each keeps in flight, which front it speaks, and how it draws a request.
type workload struct {
	name  string
	conns int
	depth int
	http  bool
	ring  int
	draw  func(g *generator) *request
}

var workloads = []workload{
	// One admission decision at a time: the serve layer dominates.
	{name: "point", conns: 2, depth: 1, ring: ringLen, draw: (*generator).predict},
	// A scheduler probing 256 candidate mixes per frame: the kernel dominates.
	{name: "batch", conns: 2, depth: 4, ring: ringLen / batchMixes, draw: func(g *generator) *request { return g.batch(batchMixes) }},
	// Reads beside writes, pipelined: feedback rings, drain, blame.
	{name: "mixed", conns: 2, depth: 8, ring: ringLen, draw: (*generator).mixed},
	// The same core behind the JSON front.
	{name: "http", conns: 2, depth: 1, http: true, ring: ringLen, draw: (*generator).httpMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated request with its encodings on both fronts and
// the response the in-process reference predictor says it must get.
type request struct {
	op       uint8 // serve.OpPredict, serve.OpBatch or serve.OpFeedback
	explain  bool
	primary  int
	mixes    [][]int // one mix except for batches
	observed float64 // feedback only: the simulated ground truth

	opName string // the op label of contender_serve_requests_total
	preds  int    // predictions the response carries (feedback: 0)

	frame  []byte // binary payload after the frame header
	reply  []byte // expected binary response payload after the header
	path   string // HTTP route
	body   []byte // JSON request body
	jreply []byte // expected JSON response body
}

func (r *request) opcode() uint8 {
	if r.explain {
		return r.op | serve.FlagExplain
	}
	return r.op
}

// inputs is everything a run generates before timing.
type inputs struct {
	w     workload
	seed  int64
	wb    *contender.Workbench
	ref   *contender.Predictor // reference: no observer, no quality
	ids   []int
	pool  []*request   // feedback requests carrying simulated ground truth
	probe []*request   // the pool's mixes as plain predictions
	rings [][]*request // one per connection
	mre   float64      // mean |observed − predicted| / observed over the pool
}

// newInputs trains the reference predictor and generates the workload's
// requests and their expected responses from seed.
func newInputs(w workload, seed int64) (*inputs, error) {
	wb, err := contender.NewWorkbench(contender.WithMPLs(modelMPLs...), contender.WithSeed(modelSeed))
	if err != nil {
		return nil, err
	}
	ref, err := wb.Train()
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, wb: wb, ref: ref, ids: wb.TemplateIDs()}
	g := &generator{in: in, rng: rand.New(rand.NewSource(stream(seed, 0)))}
	// Simulate in a fixed order: the simulator's own random state
	// advances with every call, so the order is part of the input.
	var sumErr float64
	for i := 0; i < poolLen; i++ {
		primary, mix := g.primary(), g.mix()
		lat, err := wb.Simulate(append([]int{primary}, mix...))
		if err != nil {
			return nil, err
		}
		fb, err := g.finish(&request{op: serve.OpFeedback, primary: primary, mixes: [][]int{mix}, observed: lat[0]})
		if err != nil {
			return nil, err
		}
		p, err := g.finish(&request{op: serve.OpPredict, primary: primary, mixes: [][]int{mix}})
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, fb)
		in.probe = append(in.probe, p)
		predicted := math.Float64frombits(binary.LittleEndian.Uint64(p.reply))
		sumErr += math.Abs(lat[0]-predicted) / lat[0]
	}
	in.mre = sumErr / poolLen
	for c := 0; c < w.conns; c++ {
		g.rng = rand.New(rand.NewSource(stream(seed, c+1)))
		ring := make([]*request, w.ring)
		for i := range ring {
			if ring[i] = w.draw(g); g.err != nil {
				return nil, g.err
			}
		}
		in.rings = append(in.rings, ring)
	}
	return in, nil
}

// stream derives independent generator seeds for the pool (0) and each
// connection (1, 2, ...).
func stream(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// generator draws requests: a primary and 1–4 concurrent templates, each
// uniform over the trained templates.
type generator struct {
	in   *inputs
	rng  *rand.Rand
	ebuf contender.ExplainBuffer
	err  error // the first reference failure; draws stop mattering after it
}

func (g *generator) primary() int { return g.in.ids[g.rng.Intn(len(g.in.ids))] }

func (g *generator) mix() []int {
	m := make([]int, 1+g.rng.Intn(maxConcurrent))
	for i := range m {
		m[i] = g.primary()
	}
	return m
}

func (g *generator) must(r *request, err error) *request {
	if err != nil && g.err == nil {
		g.err = err
	}
	return r
}

func (g *generator) predict() *request {
	return g.must(g.finish(&request{op: serve.OpPredict, primary: g.primary(), mixes: [][]int{g.mix()}}))
}

func (g *generator) batch(n int) *request {
	r := &request{op: serve.OpBatch, primary: g.primary(), mixes: make([][]int, n)}
	for i := range r.mixes {
		r.mixes[i] = g.mix()
	}
	return g.must(g.finish(r))
}

// mixed: 60% predict, 30% feedback with simulated ground truth, 10%
// explained predict.
func (g *generator) mixed() *request {
	switch u := g.rng.Float64(); {
	case u < 0.6:
		return g.predict()
	case u < 0.9:
		return g.in.pool[g.rng.Intn(len(g.in.pool))]
	default:
		return g.must(g.finish(&request{op: serve.OpPredict, explain: true, primary: g.primary(), mixes: [][]int{g.mix()}}))
	}
}

// httpMix: 80% predict, 20% predict_batch of 16 mixes.
func (g *generator) httpMix() *request {
	if g.rng.Float64() < 0.8 {
		return g.predict()
	}
	return g.batch(httpBatchMixes)
}

// finish prices r on the reference predictor and encodes the request and
// its expected response for both fronts.
func (g *generator) finish(r *request) (*request, error) {
	le := binary.LittleEndian
	r.frame = le.AppendUint32(nil, uint32(r.primary))
	var resp, body any
	if r.op == serve.OpBatch {
		r.frame = le.AppendUint16(r.frame, uint16(len(r.mixes)))
		r.reply = le.AppendUint16(nil, uint16(len(r.mixes)))
		preds := make([]float64, len(r.mixes))
		for i, mix := range r.mixes {
			r.frame = appendMix(r.frame, mix)
			v, err := g.in.ref.PredictKnown(r.primary, mix)
			if err != nil {
				return nil, fmt.Errorf("reference predict %d %v: %w", r.primary, mix, err)
			}
			preds[i] = v
			r.reply = appendF64(r.reply, v)
		}
		r.preds, r.opName, r.path = len(r.mixes), "predict_batch", "/v1/predict_batch"
		body, resp = serve.BatchRequest{Primary: r.primary, Mixes: r.mixes}, serve.BatchResponse{Predictions: preds}
		r.body, r.jreply = mustJSON(body), append(mustJSON(resp), '\n')
		return r, nil
	}

	mix := r.mixes[0]
	r.frame = appendMix(r.frame, mix)
	v, err := g.in.ref.PredictKnown(r.primary, mix)
	if err == nil && r.explain {
		v, err = g.in.ref.Explain(&g.ebuf, r.primary, mix)
	}
	if err != nil {
		return nil, fmt.Errorf("reference predict %d %v: %w", r.primary, mix, err)
	}
	r.reply = appendF64(nil, v)
	switch {
	case r.op == serve.OpFeedback:
		r.frame = appendF64(r.frame, r.observed)
		signed := (r.observed - v) / r.observed
		r.reply = appendF64(r.reply, signed)
		r.preds, r.opName, r.path = 0, "feedback", "/v1/feedback"
		body = serve.FeedbackRequest{Primary: r.primary, Concurrent: mix, Observed: r.observed}
		resp = serve.FeedbackResponse{Predicted: v, SignedError: signed}
	case r.explain:
		eb := &g.ebuf
		r.reply = appendF64(appendF64(r.reply, eb.Baseline), eb.CQI)
		r.reply = le.AppendUint16(r.reply, uint16(len(eb.Neighbors)))
		for i, nb := range eb.Neighbors {
			r.reply = appendF64(le.AppendUint32(r.reply, uint32(nb)), eb.Seconds[i])
		}
		r.preds, r.opName, r.path = 1, "predict", "/v1/predict"
		body = serve.PredictRequest{Primary: r.primary, Concurrent: mix, Explain: true}
		resp = serve.PredictResponse{Prediction: v, Explain: &serve.ExplainBreakdown{
			Baseline: eb.Baseline, CQI: eb.CQI,
			Neighbors: append([]int(nil), eb.Neighbors...), Seconds: append([]float64(nil), eb.Seconds...),
		}}
	default:
		r.preds, r.opName, r.path = 1, "predict", "/v1/predict"
		body, resp = serve.PredictRequest{Primary: r.primary, Concurrent: mix}, serve.PredictResponse{Prediction: v}
	}
	r.body, r.jreply = mustJSON(body), append(mustJSON(resp), '\n')
	return r, nil
}

func appendMix(b []byte, mix []int) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(mix)))
	for _, t := range mix {
		b = binary.LittleEndian.AppendUint32(b, uint32(t))
	}
	return b
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}
