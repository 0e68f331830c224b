package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"contender/internal/core"
)

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// randomMixes draws m mixes of one or two of the fixture's templates.
func randomMixes(rng *rand.Rand, m int) [][]int {
	mixes := make([][]int, m)
	for i := range mixes {
		mixes[i] = []int{1 + rng.Intn(5), 1 + rng.Intn(5)}[:1+rng.Intn(2)]
	}
	return mixes
}

// TestBinaryPipelinedOrder pins the per-connection order guarantee: one
// connection pipelines hundreds of frames without reading — batches
// large enough to go to the writer, plain and explain predicts the
// reader writes itself, and error frames — and every response comes
// back in send order, bit-equal to the in-process core. A trailing
// bad-version frame is answered after everything before it, and then
// the server hangs up.
func TestBinaryPipelinedOrder(t *testing.T) {
	_, p, addr := testServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const frames = 400
	type want struct {
		code    Code
		payload []byte // nil: an error frame, checked by code only
	}
	rng := rand.New(rand.NewSource(1))
	var reqs [][]byte
	var wants []want
	for i := 0; i < frames; i++ {
		id := uint32(i + 1)
		primary := 1 + rng.Intn(5)
		switch i % 4 {
		case 0:
			mixes := randomMixes(rng, 256)
			var pb core.PredictBuffer
			res, err := p.PredictBatch(&pb, primary, mixes)
			if err != nil {
				t.Fatal(err)
			}
			b := binary.LittleEndian.AppendUint16(nil, uint16(len(res)))
			for _, v := range res {
				b = appendF64(b, v)
			}
			if len(b) < handOffSize {
				t.Fatalf("batch response of %d bytes does not reach the hand-off size %d", len(b), handOffSize)
			}
			reqs = append(reqs, frame(OpBatch, id, func(b []byte) []byte { return appendBatch(b, primary, mixes) }))
			wants = append(wants, want{CodeOK, b})
		case 1:
			mix := randomMixes(rng, 1)[0]
			v, err := p.PredictKnown(primary, mix)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, frame(OpPredict, id, func(b []byte) []byte { return appendMix(b, primary, mix) }))
			wants = append(wants, want{CodeOK, appendF64(nil, v)})
		case 2:
			mix := randomMixes(rng, 1)[0]
			var eb core.ExplainBuffer
			total, err := p.PredictExplain(&eb, primary, mix)
			if err != nil {
				t.Fatal(err)
			}
			b := appendF64(appendF64(appendF64(nil, total), eb.Baseline), eb.CQI)
			b = binary.LittleEndian.AppendUint16(b, uint16(len(eb.Neighbors)))
			for j, nb := range eb.Neighbors {
				b = binary.LittleEndian.AppendUint32(b, uint32(nb))
				b = appendF64(b, eb.Seconds[j])
			}
			reqs = append(reqs, frame(OpPredict|FlagExplain, id, func(b []byte) []byte { return appendMix(b, primary, mix) }))
			wants = append(wants, want{CodeOK, b})
		case 3:
			if i%8 == 3 {
				reqs = append(reqs, frame(OpPredict, id, func(b []byte) []byte { return appendMix(b, 999, []int{2}) }))
				wants = append(wants, want{code: CodeUnknownTemplate})
			} else {
				reqs = append(reqs, frame(42, id, func(b []byte) []byte { return b }))
				wants = append(wants, want{code: CodeBadRequest})
			}
		}
	}
	bad := frame(OpPredict, frames+1, func(b []byte) []byte { return appendMix(b, 1, []int{2}) })
	bad[4] = 99 // stomp the version byte
	reqs = append(reqs, bad)
	wants = append(wants, want{code: CodeBadRequest})

	// Send everything from a helper goroutine before reading anything:
	// the responses pile up behind the reads this test has not made yet.
	sendErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(conn)
		for _, r := range reqs {
			if _, err := bw.Write(r); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- bw.Flush()
	}()

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	var header [4]byte
	for i, w := range wants {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(header[:]))
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		code, reqID, body := Code(payload[1]), binary.LittleEndian.Uint32(payload[2:6]), payload[frameHeaderSize:]
		if reqID != uint32(i+1) || code != w.code {
			t.Fatalf("response %d: reqID %d code %s, want reqID %d code %s", i, reqID, code, i+1, w.code)
		}
		if w.payload != nil && !bytes.Equal(body, w.payload) {
			t.Fatalf("response %d (reqID %d): payload differs from the core", i, reqID)
		}
		if w.payload == nil {
			r := frameReader{b: body}
			if n := int(r.u16()); n == 0 || r.err {
				t.Errorf("response %d: error frame carries no message", i)
			}
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	// The server hangs up after the version error.
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after version mismatch")
	}
}

// stacks returns the stack dump of every goroutine, one per element.
func stacks() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Split(string(buf[:n]), "\n\n")
}

// count counts the goroutine dumps that hold every one of the given
// substrings: function names, or a wait reason such as "[chan send".
func count(dumps []string, subs ...string) int {
	n := 0
	for _, g := range dumps {
		all := true
		for _, sub := range subs {
			all = all && strings.Contains(g, sub)
		}
		if all {
			n++
		}
	}
	return n
}

// writers counts the goroutines running a connection's writeLoop.
func writers() int { return count(stacks(), "(*connState).writeLoop(") }

// pipeConn serves one end of a synchronous in-memory pipe as an
// accepted binary connection, the way acceptLoop serves a socket. A
// write to the pipe blocks until the other end reads it, so the
// returned client end stalls the server exactly when it stops reading.
func pipeConn(s *Server) net.Conn {
	client, server := net.Pipe()
	s.mu.Lock()
	s.conns[server] = struct{}{}
	s.mu.Unlock()
	s.connWg.Add(1)
	go s.serveConn(server)
	return client
}

// TestStalledClientShutdown pins that clients which send but never read
// cannot hold Shutdown past its deadline. A small predict stalls one
// connection's reader in its own write. Large batches pipelined over
// TCP stall the other connection's writer, and its reader on the full
// write queue. Shutdown severs both at the deadline and every goroutine
// of the server exits.
func TestStalledClientShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	p := trainedPredictor(t)
	sh, err := core.NewSharded(p, core.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // a no-op unless the test stopped early
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	small := frame(OpPredict, 1, func(b []byte) []byte { return appendMix(b, 1, []int{2, 3}) })
	large := frame(OpBatch, 2, func(b []byte) []byte {
		return appendBatch(b, 1, randomMixes(rand.New(rand.NewSource(2)), 256))
	})
	pipe := pipeConn(s)
	tcp, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var senders sync.WaitGroup
	for _, w := range []struct {
		conn  net.Conn
		chunk []byte
	}{{pipe, small}, {tcp, bytes.Repeat(large, 16)}} {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				if _, err := w.conn.Write(w.chunk); err != nil {
					return // severed by Shutdown or closed below
				}
			}
		}()
	}

	// Wait until one reader is blocked in its own write, and the other
	// on a full write queue behind a writer blocked in its write.
	inline := []string{"(*connState).send(", "net.(*pipe).Write("}
	queued := []string{"[chan send", "(*connState).send("}
	writer := []string{"(*connState).writeLoop(", "net.(*conn).Write("}
	var dumps []string
	if !waitFor(20*time.Second, func() bool {
		dumps = stacks()
		return count(dumps, inline...) == 1 && count(dumps, queued...) == 1 && count(dumps, writer...) == 1
	}) {
		t.Errorf("connections never stalled: %d readers blocked writing, %d on a full queue, %d writers blocked writing",
			count(dumps, inline...), count(dumps, queued...), count(dumps, writer...))
		for _, g := range dumps {
			if strings.Contains(g, "contender/internal/serve.") {
				t.Log(g)
			}
		}
	}
	if n := writers(); n != 1 {
		t.Errorf("%d writers, want 1 (the batch connection's)", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown took %v with a 200ms deadline", d)
	}
	pipe.Close()
	tcp.Close()
	senders.Wait()
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Shutdown, %d before the server", runtime.NumGoroutine(), base)
	}
}

// TestPeerCloseStopsWriter pins the writer's lifetime: a connection
// runs no writer until its first large response, and a peer that hangs
// up mid-stream leaves none behind.
func TestPeerCloseStopsWriter(t *testing.T) {
	_, _, addr := testServer(t, Config{})
	c := dialBinary(t, addr)

	c.send(OpPredict, 1, func(b []byte) []byte { return appendMix(b, 1, []int{2}) })
	if code, _, _ := c.recv(); code != CodeOK {
		t.Fatalf("predict: code %s", code)
	}
	if n := writers(); n != 0 {
		t.Errorf("%d writers after a small response, want 0", n)
	}

	mixes := randomMixes(rand.New(rand.NewSource(3)), 256)
	c.send(OpBatch, 2, func(b []byte) []byte { return appendBatch(b, 1, mixes) })
	if code, _, _ := c.recv(); code != CodeOK {
		t.Fatalf("batch: code %s", code)
	}
	if n := writers(); n != 1 {
		t.Errorf("%d writers after a large response, want 1", n)
	}

	// Pipeline more batches and half a frame, then hang up unread.
	for i := uint32(3); i < 20; i++ {
		if _, err := c.bw.Write(frame(OpBatch, i, func(b []byte) []byte { return appendBatch(b, 1, mixes) })); err != nil {
			t.Fatal(err)
		}
	}
	half := frame(OpBatch, 20, func(b []byte) []byte { return appendBatch(b, 1, mixes) })
	if _, err := c.bw.Write(half[:len(half)/2]); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	if !waitFor(5*time.Second, func() bool { return writers() == 0 }) {
		t.Errorf("%d writers left after the peer closed", writers())
	}
}
