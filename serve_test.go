package contender

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"contender/internal/serve"
)

// The parity stream: parityConns connections, each sending parityFrames
// predict_batch requests of parityBatch mixes. Connection i replays
// the stream seeded paritySeed+i; every request draws its primary from
// the trained template pool, then each mix draws 1–2 concurrents from
// it (MPL ≤ 3, the range contender-serve -quick trains).
const (
	parityConns  = 2
	parityBatch  = 64
	parityFrames = 500
	paritySeed   = 7
	// parityWindow is how many frames a binary connection keeps in
	// flight before it reads their replies.
	parityWindow = 10
	// parityChecksum is the FNV-1a checksum of the stream's predictions,
	// pinned on both fronts: one moved bit in any served prediction
	// changes it.
	parityChecksum = "be77df31aa1089d8"
)

type parityStream struct {
	rng  *rand.Rand
	pool []int
}

func newParityStream(pool []int, conn int) *parityStream {
	return &parityStream{rng: rand.New(rand.NewSource(paritySeed + int64(conn))), pool: pool}
}

// next returns the connection's next (primary, mixes) request.
func (s *parityStream) next() (int, [][]int) {
	primary := s.pool[s.rng.Intn(len(s.pool))]
	mixes := make([][]int, parityBatch)
	for i := range mixes {
		mix := make([]int, 1+s.rng.Intn(2))
		for j := range mix {
			mix[j] = s.pool[s.rng.Intn(len(s.pool))]
		}
		mixes[i] = mix
	}
	return primary, mixes
}

// foldBits hashes the bit patterns of predictions, in order.
func foldBits(h hash.Hash64, predictions []float64) {
	var b [8]byte
	for _, v := range predictions {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
}

// foldChecksums combines per-connection checksums in connection order.
func foldChecksums(sums []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint64(b[:], s)
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// binaryStreamSum replays connection conn's stream over one binary
// connection and returns the checksum of its predictions in request
// order.
func binaryStreamSum(addr string, pool []int, conn int) (uint64, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	bw, br := bufio.NewWriter(c), bufio.NewReader(c)
	st := newParityStream(pool, conn)
	h := fnv.New64a()
	var frame []byte
	// A reply is its length, then version, status code, request ID,
	// prediction count and the predictions.
	const replyLen = 1 + 1 + 4 + 2 + 8*parityBatch
	var n [4]byte
	reply := make([]byte, replyLen)
	predictions := make([]float64, parityBatch)
	for op := 0; op < parityFrames; op += parityWindow {
		for k := op; k < op+parityWindow; k++ {
			primary, mixes := st.next()
			frame = binary.LittleEndian.AppendUint32(frame[:0], 0) // length, patched below
			frame = append(frame, serve.Version, serve.OpBatch)
			frame = binary.LittleEndian.AppendUint32(frame, uint32(k))
			frame = binary.LittleEndian.AppendUint32(frame, uint32(primary))
			frame = binary.LittleEndian.AppendUint16(frame, uint16(len(mixes)))
			for _, mix := range mixes {
				frame = binary.LittleEndian.AppendUint16(frame, uint16(len(mix)))
				for _, id := range mix {
					frame = binary.LittleEndian.AppendUint32(frame, uint32(id))
				}
			}
			binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
			if _, err := bw.Write(frame); err != nil {
				return 0, err
			}
		}
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		for k := op; k < op+parityWindow; k++ {
			if _, err := io.ReadFull(br, n[:]); err != nil {
				return 0, err
			}
			if got := binary.LittleEndian.Uint32(n[:]); got != replyLen {
				return 0, fmt.Errorf("conn %d frame %d: %d-byte reply, want %d", conn, k, got, replyLen)
			}
			if _, err := io.ReadFull(br, reply); err != nil {
				return 0, err
			}
			if code := serve.Code(reply[1]); code != serve.CodeOK || binary.LittleEndian.Uint32(reply[2:]) != uint32(k) {
				return 0, fmt.Errorf("conn %d frame %d: code %s, request ID %d", conn, k, code, binary.LittleEndian.Uint32(reply[2:]))
			}
			for i := range predictions {
				predictions[i] = math.Float64frombits(binary.LittleEndian.Uint64(reply[8+8*i:]))
			}
			foldBits(h, predictions)
		}
	}
	return h.Sum64(), nil
}

// httpStreamSum replays connection conn's stream through the HTTP
// front's handler (POST /v1/predict_batch) and returns the checksum of
// its predictions in request order.
func httpStreamSum(t *testing.T, handler http.Handler, pool []int, conn int) uint64 {
	t.Helper()
	st := newParityStream(pool, conn)
	h := fnv.New64a()
	for op := 0; op < parityFrames; op++ {
		primary, mixes := st.next()
		body, err := json.Marshal(serve.BatchRequest{Primary: primary, Mixes: mixes})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict_batch", bytes.NewReader(body)))
		var resp serve.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Predictions) != parityBatch {
			t.Fatalf("conn %d request %d: status %d: %s", conn, op, rec.Code, rec.Body.Bytes())
		}
		foldBits(h, resp.Predictions)
	}
	return h.Sum64()
}

// TestServeParityChecksum trains the predictor contender-serve -quick
// serves (quick sampling, MPLs 2–3, seed 42), serves it with
// Workbench.Serve, and replays the parity stream over both fronts: the
// binary listener, with the connections running concurrently, and the
// HTTP handler. Both fronts must return every prediction bit for bit,
// which the pinned checksum proves.
func TestServeParityChecksum(t *testing.T) {
	wb, err := NewWorkbench(QuickSampling(), WithMPLs(2, 3), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wb.Serve(context.Background(), pred, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	pool := wb.TemplateIDs()

	sums := make([]uint64, parityConns)
	errs := make([]error, parityConns)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = binaryStreamSum(srv.BinaryAddr(), pool, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("binary front: %v", err)
		}
	}
	if got := foldChecksums(sums); got != parityChecksum {
		t.Errorf("binary front checksum %s, want %s", got, parityChecksum)
	}

	for i := range sums {
		sums[i] = httpStreamSum(t, srv.Handler(), pool, i)
	}
	if got := foldChecksums(sums); got != parityChecksum {
		t.Errorf("HTTP front checksum %s, want %s", got, parityChecksum)
	}
}

// TestBatchInvariantAcrossProcsAndShards: concurrent readers pricing a
// batch on the serving snapshot, each with its own PredictBuffer as each
// server connection has, must return the bits of a single-threaded
// canonical run, at every GOMAXPROCS, reader count and batch size.
func TestBatchInvariantAcrossProcsAndShards(t *testing.T) {
	const primary, rounds = 71, 20
	pred := trainedPredictor(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, batch := range []int{4, 16, 64} {
		mixes := randomMixes(pred.Knowledge().IDs(), batch)
		var buf PredictBuffer
		canonical, err := pred.PredictBatch(&buf, primary, mixes)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, readers := range []int{1, 2, 4} {
				set, err := NewSharded(pred)
				if err != nil {
					t.Fatal(err)
				}
				errs := make([]error, readers)
				var wg sync.WaitGroup
				for w := range errs {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var buf PredictBuffer
						for r := 0; r < rounds; r++ {
							got, err := set.Snapshot().PredictBatch(&buf, primary, mixes)
							if err != nil {
								errs[w] = err
								return
							}
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(canonical[i]) {
									errs[w] = fmt.Errorf("round %d mix %v: %v, canonical %v", r, mixes[i], got[i], canonical[i])
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				for w, err := range errs {
					if err != nil {
						t.Errorf("procs=%d readers=%d batch=%d reader %d: %v", procs, readers, batch, w, err)
					}
				}
			}
		}
	}
}

// TestServeObserverWithSlowLog: WithSlowLog joins the log to the
// server's observer instead of replacing it, on NewServer with an
// explicit observer and on Workbench.Serve with the workbench's. The
// metrics observer still counts contender_serve_requests_total and the
// log still writes the slow line.
func TestServeObserverWithSlowLog(t *testing.T) {
	predict := func(t *testing.T, h http.Handler) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte(`{"primary":2,"concurrent":[22]}`)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("predict status %d: %s", w.Code, w.Body.String())
		}
	}
	check := func(t *testing.T, m *Metrics, log *bytes.Buffer) {
		t.Helper()
		if got := m.Snapshot().Counter(`contender_serve_requests_total{op="predict"}`); got != 1 {
			t.Errorf("contender_serve_requests_total{op=\"predict\"} = %d, want 1", got)
		}
		if !bytes.Contains(log.Bytes(), []byte("SLOW serve.request key=predict")) {
			t.Errorf("slow log missing the serve.request line:\n%s", log.String())
		}
	}

	t.Run("NewServer", func(t *testing.T) {
		res, err := TrainFromSystem(freshChaosSystem(5), chaosTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewSharded(res.Predictor)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMetrics()
		var log bytes.Buffer
		srv, err := NewServer(sharded, WithServeObserver(m), WithSlowLog(&log, 0))
		if err != nil {
			t.Fatal(err)
		}
		predict(t, srv.Handler())
		check(t, m, &log)
	})

	t.Run("Workbench.Serve", func(t *testing.T) {
		m := NewMetrics()
		wb, err := NewWorkbench(quickObsOptions(WithObserver(m))...)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := wb.Train()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var log bytes.Buffer
		srv, err := wb.Serve(ctx, pred, "127.0.0.1:0", WithSlowLog(&log, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			_ = srv.Shutdown(sctx)
		}()
		predict(t, srv.Handler())
		check(t, m, &log)
	})
}
