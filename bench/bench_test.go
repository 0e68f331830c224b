package main

import (
	"net"
	"net/http"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for about 500ms against the
// in-process serving stack (Workbench.Serve plus the HTTP front),
// interleaved with the echo as an untraced run does, then replays it
// briefly up the ladder. Nothing may fail, every response must be
// bit-identical to the reference (or, from the echo, to the request),
// and the server's request counters must equal the client's.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := newInputs(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := startStack(in.wb)
			if err != nil {
				t.Fatal(err)
			}
			defer st.stop()
			// verifiedLoad expects the server to have answered the
			// cold-start probe and nothing else.
			if ok, err := askOnce(st.target.bin, in.probe[0]); err != nil || !ok {
				t.Fatalf("probe: ok=%v err=%v", ok, err)
			}
			sides := []side{{target: st.target}, {target: startEchoInProcess(t), echo: true}}
			spec := loadSpec{depth: w.depth, http: w.http, phases: interleaved(100*time.Millisecond, 400*time.Millisecond, 50*time.Millisecond)}
			load, _, err := verifiedLoad(sides, in, func() ([]*loadStats, error) { return runLoad(sides, in.rings, spec) })
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range load {
				if l.failed != 0 {
					t.Errorf("side %d: %d of %d failed; first: %s", i, l.failed, l.attempted, l.firstFailure)
				}
				if l.windowReqs == 0 || l.lat.n != uint64(l.windowReqs) || l.window != 200*time.Millisecond {
					t.Errorf("side %d: %d requests and %d latencies in a %v window", i, l.windowReqs, l.lat.n, l.window)
				}
			}
			if !load[0].countersMatch {
				t.Error("contender_serve_requests_total differs from the client's counts")
			}

			res := newResult(perLayer)
			if _, err := runLadder(in, 400*time.Millisecond, newTracer(), res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Error("a ladder call failed or differs from the reference")
			}
		})
	}
}

// startEchoInProcess serves the echo on two loopback ports until the
// test ends.
func startEchoInProcess(t *testing.T) target {
	bin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	web, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(echoHTTP)}
	go func() { _ = serveEchoBinary(bin) }()
	go func() { _ = hs.Serve(web) }()
	t.Cleanup(func() {
		bin.Close()
		hs.Close()
	})
	return target{bin: bin.Addr().String(), http: web.Addr().String()}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step: same workloads, names and units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i := range bf.Workloads {
		if i < len(workloads) && bf.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, workloads[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	for _, c := range []struct {
		kind      string
		json, got []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.got))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.got[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", c.kind, i, c.json[i], c.got[i])
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
