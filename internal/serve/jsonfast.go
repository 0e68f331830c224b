package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"

	"contender/internal/core"
	"contender/internal/resilience"
)

// The HTTP front decodes and encodes its v1 bodies without
// encoding/json on the common path.
//
// Decoding: a strict scanner accepts the canonical subset of the three
// request bodies — one object whose keys are the route's exact
// lowercase field names, each at most once, in any order; JSON
// whitespace; integer literals that fit an int and arrays of them;
// true and false; and for observed any JSON number literal that
// strconv.ParseFloat takes. It decodes straight into pooled scratch.
// On any byte outside that subset it gives up, and the body goes to
// json.Unmarshal into the route's v1 request struct, whose result or
// error stands. So encoding/json stays the arbiter of every body the
// scanner does not know (escaped or case-folded keys, null, unknown or
// duplicate keys, 1e2 where an int belongs, trailing bytes), and what
// the scanner accepts is valid JSON that json.Unmarshal decodes to the
// same values. FuzzHTTPBody holds both halves to a reference handler
// that decodes and encodes with encoding/json alone.
//
// Encoding: success bodies are appended byte for byte as
// json.NewEncoder(w).Encode renders the v1 response structs, trailing
// newline included. A float JSON cannot carry (NaN, ±Inf) fails the
// request with errNonFinite, which answers the internal envelope.

// errNonFinite reports a response float JSON cannot carry. Retrying the
// same request prices the same value, so it is permanent.
var errNonFinite = resilience.Permanent(errors.New("serve: response carries a non-finite value"))

// Field bits of the v1 request bodies; each route allows a subset.
const (
	fieldPrimary uint8 = 1 << iota
	fieldConcurrent
	fieldExplain
	fieldMixes
	fieldObserved

	predictFields  = fieldPrimary | fieldConcurrent | fieldExplain
	batchFields    = fieldPrimary | fieldMixes
	feedbackFields = fieldPrimary | fieldConcurrent | fieldObserved
)

// fieldNames are the JSON names of the field bits, in bit order.
var fieldNames = [...]string{"primary", "concurrent", "explain", "mixes", "observed"}

// httpRequest is a decoded request body of any route. Slices decoded
// by the scanner view the scratch arena.
type httpRequest struct {
	primary    int
	concurrent []int
	explain    bool
	mixes      [][]int
	observed   float64
}

// httpScratch is one HTTP request's working set: the body, the decoded
// request and its mix arena, the pricing buffers and the response
// bytes. It is pooled across requests.
type httpScratch struct {
	body    []byte
	req     httpRequest
	mixArea []int // concurrent IDs of the request's mix or mixes
	mixEnds []int // end of each batch mix in mixArea
	mixes   [][]int
	pbuf    core.PredictBuffer
	ebuf    core.ExplainBuffer
	out     []byte
}

// maxPooledScratch is the footprint past which a scratch is dropped
// instead of pooled, so one large body cannot pin its buffers in every
// pool slot for the life of the process.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return &httpScratch{body: make([]byte, 0, 512)} }}

// release returns sc to the pool unless it grew past maxPooledScratch.
// The pricing buffers grow with the mixes and mix arena they priced,
// so those bound them.
func (sc *httpScratch) release() {
	sc.req = httpRequest{} // drop references to fallback-decoded slices
	footprint := cap(sc.body) + cap(sc.out) + 8*(cap(sc.mixArea)+cap(sc.mixEnds)) + 24*cap(sc.mixes)
	if footprint <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// readBody reads r into buf, reusing its capacity, up to one byte past
// MaxFrame so that an over-limit body is detected instead of being
// truncated into a parseable prefix.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if limit := MaxFrame + 1 - len(buf); len(room) > limit {
			room = room[:limit]
		}
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) || len(buf) > MaxFrame {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decode reads body into sc.req as a request of the route whose fields
// are allowed: by the scanner when the body is canonical, by
// json.Unmarshal into the route's v1 struct otherwise.
func (sc *httpScratch) decode(body []byte, allowed uint8) error {
	if sc.scan(body, allowed) {
		return nil
	}
	sc.req = httpRequest{}
	switch allowed {
	case predictFields:
		var v PredictRequest
		err := json.Unmarshal(body, &v)
		sc.req.primary, sc.req.concurrent, sc.req.explain = v.Primary, v.Concurrent, v.Explain
		return err
	case batchFields:
		var v BatchRequest
		err := json.Unmarshal(body, &v)
		sc.req.primary, sc.req.mixes = v.Primary, v.Mixes
		return err
	default:
		var v FeedbackRequest
		err := json.Unmarshal(body, &v)
		sc.req.primary, sc.req.concurrent, sc.req.observed = v.Primary, v.Concurrent, v.Observed
		return err
	}
}

// scan decodes a canonical body into sc.req. It reports false when the
// body is outside the canonical subset; sc.req then means nothing.
func (sc *httpScratch) scan(body []byte, allowed uint8) bool {
	sc.req = httpRequest{}
	sc.mixArea, sc.mixEnds, sc.mixes = sc.mixArea[:0], sc.mixEnds[:0], sc.mixes[:0]
	s := scanner{b: body}
	if !s.next('{') {
		return false
	}
	var seen uint8
	if !s.next('}') {
		for {
			f := s.key()
			if f&allowed == 0 || f&seen != 0 {
				return false
			}
			seen |= f
			var ok bool
			switch f {
			case fieldPrimary:
				sc.req.primary, ok = s.int()
			case fieldConcurrent:
				sc.mixArea, ok = s.ints(sc.mixArea)
			case fieldExplain:
				sc.req.explain, ok = s.bool()
			case fieldMixes:
				ok = sc.scanMixes(&s)
			case fieldObserved:
				sc.req.observed, ok = s.float()
			}
			if !ok {
				return false
			}
			if s.next(',') {
				continue
			}
			if s.next('}') {
				break
			}
			return false
		}
	}
	s.skipSpace()
	if s.off != len(s.b) {
		return false
	}
	// A route allows concurrent or mixes, never both, so the arena holds
	// one of them. Views are cut only now that it has stopped growing.
	if seen&fieldConcurrent != 0 {
		sc.req.concurrent = sc.mixArea
	}
	if seen&fieldMixes != 0 {
		start := 0
		for _, end := range sc.mixEnds {
			sc.mixes = append(sc.mixes, sc.mixArea[start:end])
			start = end
		}
		sc.req.mixes = sc.mixes
	}
	return true
}

// scanMixes scans an array of int arrays into the arena.
func (sc *httpScratch) scanMixes(s *scanner) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		var ok bool
		if sc.mixArea, ok = s.ints(sc.mixArea); !ok {
			return false
		}
		sc.mixEnds = append(sc.mixEnds, len(sc.mixArea))
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// scanner is a cursor over a request body.
type scanner struct {
	b   []byte
	off int
}

// skipSpace skips JSON whitespace.
func (s *scanner) skipSpace() {
	for s.off < len(s.b) {
		switch s.b[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte after whitespace.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.off < len(s.b) && s.b[s.off] == c {
		s.off++
		return true
	}
	return false
}

// key scans `"name":` and returns the name's field bit: 0 for any name
// that is not exactly one of the v1 request fields.
func (s *scanner) key() uint8 {
	if !s.next('"') {
		return 0
	}
	start := s.off
	for s.off < len(s.b) && s.b[s.off] >= 'a' && s.b[s.off] <= 'z' {
		s.off++
	}
	name := s.b[start:s.off]
	if s.off == len(s.b) || s.b[s.off] != '"' {
		return 0
	}
	s.off++
	if !s.next(':') {
		return 0
	}
	for i, field := range fieldNames {
		if string(name) == field {
			return 1 << i
		}
	}
	return 0
}

// int scans an integer literal without fraction or exponent that fits
// an int.
func (s *scanner) int() (int, bool) {
	s.skipSpace()
	b, i := s.b, s.off
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > limit/10 {
			return 0, false
		}
		if u = u*10 + uint64(b[i]-'0'); u > limit {
			return 0, false
		}
	}
	// One digit at least and no leading zero. A fraction or exponent
	// that follows fails the caller's next structural byte.
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, false
	}
	s.off = i
	// The conversion wraps -MinInt's magnitude to MinInt, which negates
	// to itself.
	v := int(u)
	if neg {
		v = -v
	}
	return v, true
}

// ints scans an array of integers, appending them to dst.
func (s *scanner) ints(dst []int) ([]int, bool) {
	if !s.next('[') {
		return dst, false
	}
	if s.next(']') {
		return dst, true
	}
	for {
		v, ok := s.int()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if !s.next(',') {
			return dst, s.next(']')
		}
	}
}

// bool scans true or false.
func (s *scanner) bool() (bool, bool) {
	s.skipSpace()
	rest := s.b[s.off:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.off += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.off += 5
		return false, true
	}
	return false, false
}

// float scans a JSON number literal and parses it as encoding/json
// does. A literal out of float64's range is left to json.Unmarshal,
// which reports it.
func (s *scanner) float() (float64, bool) {
	s.skipSpace()
	b, i := s.b, s.off
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	s.off = i
	return f, true
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// encoder appends a success body. A non-finite float clears finite
// instead of being written.
type encoder struct {
	b      []byte
	finite bool
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

// float appends f as encoding/json renders a float64: 'f' format, or
// 'e' below 1e-6 and from 1e21, with a two-digit negative exponent
// shortened (e-09 → e-9).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.finite = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

func (e *encoder) floats(fs []float64) {
	if fs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, f := range fs {
		if i > 0 {
			e.raw(",")
		}
		e.float(f)
	}
	e.raw("]")
}

func (e *encoder) ints(is []int) {
	if is == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, v := range is {
		if i > 0 {
			e.raw(",")
		}
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	}
	e.raw("]")
}

func (e *encoder) done() ([]byte, error) {
	if !e.finite {
		return e.b, errNonFinite
	}
	return e.b, nil
}

// appendPredictResponse appends v's JSON body to b.
func appendPredictResponse(b []byte, v *PredictResponse) ([]byte, error) {
	e := encoder{b: b, finite: true}
	e.raw(`{"prediction":`)
	e.float(v.Prediction)
	if x := v.Explain; x != nil {
		e.raw(`,"explain":{"baseline":`)
		e.float(x.Baseline)
		e.raw(`,"cqi":`)
		e.float(x.CQI)
		e.raw(`,"neighbors":`)
		e.ints(x.Neighbors)
		e.raw(`,"seconds":`)
		e.floats(x.Seconds)
		e.raw("}")
	}
	e.raw("}\n")
	return e.done()
}

// appendBatchResponse appends v's JSON body to b.
func appendBatchResponse(b []byte, v *BatchResponse) ([]byte, error) {
	e := encoder{b: b, finite: true}
	e.raw(`{"predictions":`)
	e.floats(v.Predictions)
	e.raw("}\n")
	return e.done()
}

// appendFeedbackResponse appends v's JSON body to b.
func appendFeedbackResponse(b []byte, v *FeedbackResponse) ([]byte, error) {
	e := encoder{b: b, finite: true}
	e.raw(`{"predicted":`)
	e.float(v.Predicted)
	e.raw(`,"signed_error":`)
	e.float(v.SignedError)
	e.raw("}\n")
	return e.done()
}
