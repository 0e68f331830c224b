package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"contender/internal/serve"
)

// target is a running server: its binary-protocol address and the
// address of its HTTP front (/v1/*, /metrics, /debug/pprof).
type target struct {
	bin, http string
}

// side is one server a load drives: the server under test, or the
// reference echo, whose responses carry each request's own payload.
type side struct {
	target
	echo bool
}

// phase is one stretch of a load: every connection drives one side for
// d, then drains what it has in flight. Only timed phases are measured.
type phase struct {
	side  int
	d     time.Duration
	timed bool
}

// steady is a load of one side: warm-up, then the measured window.
func steady(warm, window time.Duration) []phase {
	return []phase{{0, warm, false}, {0, window, true}}
}

// interleaved alternates the server under test (side 0) and the echo
// (side 1): each warms up for warm/2, then the window is split into
// slices of the given length in the order S E E S, S E E S, ..., so a
// drift of the machine within the window weighs on both sides alike.
func interleaved(warm, window, slice time.Duration) []phase {
	ps := []phase{{0, warm / 2, false}, {1, warm / 2, false}}
	n := max(4, int(window/slice)/4*4)
	for i := 0; i < n; i++ {
		ps = append(ps, phase{[]int{0, 1, 1, 0}[i%4], window / time.Duration(n), true})
	}
	return ps
}

// loadSpec describes one closed loop: each connection keeps depth
// requests in flight and sends the next only when a response arrives.
type loadSpec struct {
	depth  int
	http   bool
	phases []phase
	// limit, when positive, sends exactly limit requests per connection
	// to side 0 and ignores the phases.
	limit int
	// mark, when set, runs on the calling goroutine at the start (true)
	// of the first timed phase and the end (false) of the last, to sample
	// process counters.
	mark func(start bool)
	// onDone, when set, sees every response (the traced ladder's spans).
	onDone func(r *request, seq int, sent, recv time.Time)
}

// loadStats is what the client saw of one side. Everything but the
// window fields covers the whole loop, warm-up and drains included.
type loadStats struct {
	attempted, failed int
	firstFailure      string
	sent              map[string]int // requests sent by op label
	preds             int            // predictions received
	windowReqs        int
	windowPreds       int
	window            time.Duration // the timed phases' total length
	lat               *hist
	countersMatch     bool // the server's request counters equal sent
}

func (s *loadStats) add(o *loadStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
	if s.sent == nil {
		s.sent = map[string]int{}
	}
	for k, v := range o.sent {
		s.sent[k] += v
	}
	s.preds += o.preds
	s.windowReqs += o.windowReqs
	s.windowPreds += o.windowPreds
	s.window += o.window
	if s.lat == nil {
		s.lat = newHist()
	}
	if o.lat != nil {
		s.lat.merge(o.lat)
	}
}

// reqRate is the requests completed per second of the timed phases.
func (s *loadStats) reqRate() float64 { return float64(s.windowReqs) / s.window.Seconds() }

// runLoad drives one connection per ring to each side, through the
// phases (or until the limit is reached), and returns what the client
// saw of each side.
func runLoad(sides []side, rings [][]*request, spec loadSpec) ([]*loadStats, error) {
	phases := spec.phases
	if spec.limit > 0 {
		phases = []phase{{side: 0}}
	}
	ends := make([]time.Time, len(phases))
	totals := make([]*loadStats, len(sides))
	for i := range totals {
		totals[i] = &loadStats{sent: map[string]int{}, lat: newHist()}
	}
	var first, last time.Time
	t := time.Now()
	for k, ph := range phases {
		if ph.timed && first.IsZero() {
			first = t
		}
		t = t.Add(ph.d)
		ends[k] = t
		if ph.timed {
			last = t
			totals[ph.side].window += ph.d
		}
	}
	stats := make([][]*loadStats, len(rings))
	errs := make([]error, len(rings))
	var wg sync.WaitGroup
	for i, ring := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = driveConn(sides, ring, spec, phases, ends)
		}()
	}
	if spec.mark != nil && !first.IsZero() {
		time.Sleep(time.Until(first))
		spec.mark(true)
		time.Sleep(time.Until(last))
		spec.mark(false)
	}
	wg.Wait()
	for i := range rings {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for s := range sides {
			totals[s].add(stats[i][s])
		}
	}
	return totals, nil
}

// codec writes requests and checks responses on one connection.
type codec interface {
	write(bw *bufio.Writer, r *request, seq uint32) error
	// read consumes one response and reports whether it is exactly the
	// expected one; an error means the connection is unusable.
	read(br *bufio.Reader, r *request, seq uint32) (bool, error)
}

// line is one connection to one side, with the requests it has in
// flight. Its sequence numbers and ring cursor carry over from one phase
// to the next.
type line struct {
	conn             net.Conn
	br               *bufio.Reader
	bw               *bufio.Writer
	cd               codec
	st               *loadStats
	slots            []slot
	pending          []uint32 // written but not yet flushed
	sendSeq, recvSeq uint32
	cursor, issued   int
}

type slot struct {
	r    *request
	sent time.Time
}

func dialLine(s side, useHTTP bool, depth int, deadline time.Time) (*line, error) {
	addr := s.bin
	var cd codec = &binaryCodec{echo: s.echo}
	if useHTTP {
		addr, cd = s.http, &httpCodec{host: s.http, echo: s.echo}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	return &line{
		conn: conn, cd: cd,
		br:    bufio.NewReaderSize(conn, 64<<10),
		bw:    bufio.NewWriterSize(conn, 64<<10),
		st:    &loadStats{sent: map[string]int{}, lat: newHist()},
		slots: make([]slot, depth), pending: make([]uint32, 0, depth),
	}, nil
}

func driveConn(sides []side, ring []*request, spec loadSpec, phases []phase, ends []time.Time) ([]*loadStats, error) {
	deadline := ends[len(ends)-1].Add(30 * time.Second)
	if spec.limit > 0 {
		deadline = time.Now().Add(60 * time.Second)
	}
	lines := make([]*line, len(sides))
	defer func() {
		for _, l := range lines {
			if l != nil {
				l.conn.Close()
			}
		}
	}()
	for i, s := range sides {
		l, err := dialLine(s, spec.http, spec.depth, deadline)
		if err != nil {
			return nil, err
		}
		lines[i] = l
	}
	for k, ph := range phases {
		l, end := lines[ph.side], ends[k]
		canSend := func(now time.Time) bool { return now.Before(end) }
		if spec.limit > 0 {
			canSend = func(time.Time) bool { return l.issued < spec.limit }
		}
		if err := l.drive(ring, spec, ph.timed, end, canSend); err != nil {
			return nil, err
		}
	}
	stats := make([]*loadStats, len(lines))
	for i, l := range lines {
		stats[i] = l.st
	}
	return stats, nil
}

// drive runs the closed loop while canSend allows, then drains. When
// timed, responses that arrive before end are measured.
func (l *line) drive(ring []*request, spec loadSpec, timed bool, end time.Time, canSend func(time.Time) bool) error {
	depth, st := uint32(len(l.slots)), l.st
	issue := func() error {
		r := ring[l.cursor]
		l.cursor = (l.cursor + 1) % len(ring)
		if err := l.cd.write(l.bw, r, l.sendSeq); err != nil {
			return err
		}
		l.slots[l.sendSeq%depth].r = r
		l.pending = append(l.pending, l.sendSeq)
		st.sent[r.opName]++
		l.sendSeq++
		l.issued++
		return nil
	}
	flush := func() error {
		now := time.Now()
		for _, s := range l.pending {
			l.slots[s%depth].sent = now
		}
		l.pending = l.pending[:0]
		return l.bw.Flush()
	}
	for i := uint32(0); i < depth && canSend(time.Now()); i++ {
		if err := issue(); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for l.recvSeq != l.sendSeq {
		sl := l.slots[l.recvSeq%depth]
		ok, err := l.cd.read(l.br, sl.r, l.recvSeq)
		now := time.Now()
		if err != nil {
			return fmt.Errorf("%s response %d: %w", sl.r.opName, l.recvSeq, err)
		}
		st.attempted++
		if ok {
			st.preds += sl.r.preds
		} else {
			st.failed++
			if st.firstFailure == "" {
				st.firstFailure = fmt.Sprintf("%s primary %d mixes %v: response differs from the reference", sl.r.opName, sl.r.primary, sl.r.mixes)
			}
		}
		if timed && now.Before(end) {
			st.lat.record(now.Sub(sl.sent))
			st.windowReqs++
			if ok {
				st.windowPreds += sl.r.preds
			}
		}
		if spec.onDone != nil {
			spec.onDone(sl.r, int(l.recvSeq), sl.sent, now)
		}
		l.recvSeq++
		if canSend(now) {
			if err := issue(); err != nil {
				return err
			}
		}
		// Flush unless more of a response is already buffered: the next
		// read then returns without waiting on the server.
		if len(l.pending) > 0 && l.br.Buffered() < 4 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// binaryCodec speaks the v1 binary protocol (see internal/serve/wire.go):
// u32 length, u8 version, u8 opcode or status, u32 request id, payload.
// The echo answers with status CodeOK and the request's own payload.
type binaryCodec struct {
	echo bool
	hdr  [10]byte
	buf  []byte
}

func (c *binaryCodec) write(bw *bufio.Writer, r *request, seq uint32) error {
	le := binary.LittleEndian
	le.PutUint32(c.hdr[0:], uint32(6+len(r.frame)))
	c.hdr[4], c.hdr[5] = serve.Version, r.opcode()
	le.PutUint32(c.hdr[6:], seq)
	if _, err := bw.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(r.frame)
	return err
}

func (c *binaryCodec) read(br *bufio.Reader, r *request, seq uint32) (bool, error) {
	if _, err := io.ReadFull(br, c.hdr[:4]); err != nil {
		return false, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:4]))
	if n < 6 || n > serve.MaxFrame {
		return false, fmt.Errorf("bad response frame length %d", n)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	b := c.buf[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return false, err
	}
	if binary.LittleEndian.Uint32(b[2:6]) != seq {
		return false, fmt.Errorf("response id %d, want %d", binary.LittleEndian.Uint32(b[2:6]), seq)
	}
	want := r.reply
	if c.echo {
		want = r.frame
	}
	return b[0] == serve.Version && b[1] == byte(serve.CodeOK) && bytes.Equal(b[6:], want), nil
}

// httpCodec speaks HTTP/1.1 over one keep-alive connection, one request
// at a time. Requests are written by hand so the client costs little;
// responses are parsed by net/http. The echo answers with the request's
// own body.
type httpCodec struct {
	host string
	echo bool
	buf  []byte
}

func (c *httpCodec) write(bw *bufio.Writer, r *request, _ uint32) error {
	c.buf = append(c.buf[:0], "POST "...)
	c.buf = append(c.buf, r.path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: "...)
	c.buf = append(c.buf, c.host...)
	c.buf = append(c.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(r.body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, r.body...)
	_, err := bw.Write(c.buf)
	return err
}

func (c *httpCodec) read(br *bufio.Reader, r *request, _ uint32) (bool, error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.Close {
		return false, fmt.Errorf("server closed the keep-alive connection (status %d)", resp.StatusCode)
	}
	if c.echo {
		return resp.StatusCode == http.StatusOK && bytes.Equal(body, r.body), nil
	}
	return resp.StatusCode == http.StatusOK && jsonMatches(r, body), nil
}

// jsonMatches reports whether body carries exactly the expected values.
// Bodies are compared as bytes first; a body formatted differently is
// decoded and re-encoded, so only the values (bit for bit: JSON floats
// round-trip exactly) decide.
func jsonMatches(r *request, body []byte) bool {
	if bytes.Equal(body, r.jreply) {
		return true
	}
	var v any
	switch {
	case r.op == serve.OpBatch:
		v = &serve.BatchResponse{}
	case r.op == serve.OpFeedback:
		v = &serve.FeedbackResponse{}
	default:
		v = &serve.PredictResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return false
	}
	return bytes.Equal(append(mustJSON(v), '\n'), r.jreply)
}
