// Command contender-serve exposes a trained predictor as a network
// service speaking the v1 wire schema on two protocols: HTTP/JSON
// (POST /v1/predict, /v1/predict_batch, /v1/feedback, mounted beside
// /metrics and /quality) and the compact length-prefixed binary
// protocol for high-throughput clients.
//
// Usage:
//
//	contender-serve -quick                         # train, serve binary on -addr
//	contender-serve -quick -metrics-addr :9090     # + HTTP front beside /metrics
//	contender-serve -load model.json -addr :7341   # serve a saved snapshot
//	contender-serve -quick -loadgen                # benchmark both protocols,
//	                                               # verify parity, write BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"contender"
	"contender/internal/cliutil"
	"contender/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7341", "binary protocol listen address (use :0 for an ephemeral port)")
		maddr    = flag.String("metrics-addr", "", "HTTP address serving /v1/* beside /metrics, /quality, /blame, /debug/pprof (e.g. :9090)")
		load     = flag.String("load", "", "load a saved predictor snapshot instead of training")
		quick    = flag.Bool("quick", false, "reduced sampling for a fast training pass")
		seed     = flag.Int64("seed", 42, "simulation seed for training")
		workers  = flag.Int("workers", 0, "training worker pool width (0 = GOMAXPROCS)")
		maxMPL   = flag.Int("max-mpl", 3, "train mixes at MPLs up to this (bounds the mix sizes the server can price)")
		shards   = flag.Int("shards", 0, "serving shard count (0 = GOMAXPROCS)")
		ring     = flag.Int("ring", 0, "per-shard feedback ring capacity (0 = default 1024)")
		maxBatch = flag.Int("max-batch", 0, "cap the mixes of one predict_batch request (0 = default 4096)")
		rate     = flag.Float64("rate", 0, "admission token-bucket rate per connection, requests/s (0 disables)")
		burst    = flag.Int("burst", 0, "admission token-bucket burst (0 = one second of rate)")
		inflight = flag.Int("max-inflight", 0, "admission cap on in-flight requests per connection (0 disables)")
		slowLog  = flag.Duration("slowlog", -1, "log requests slower than this to stderr, admission to reply (0 logs every request; negative disables)")
		blameTop = flag.Int("blame-top", 0, "blame-ranking depth of the /blame report (0 = default 5)")

		loadgen  = flag.Bool("loadgen", false, "run the deterministic load generator against an in-process server and exit")
		lgConns  = flag.Int("loadgen-conns", 2, "loadgen: concurrent binary connections")
		lgBatch  = flag.Int("loadgen-batch", 64, "loadgen: mixes per predict_batch frame")
		lgOps    = flag.Int("loadgen-ops", 2000, "loadgen: batch frames per connection")
		lgSeed   = flag.Int64("loadgen-seed", 7, "loadgen: stream seed (conn i replays seed+i)")
		benchOut = flag.String("bench-out", "BENCH_serve.json", "loadgen: write the benchmark row to this file (empty disables)")
		minRate  = flag.Float64("min-rate", 0, "loadgen: exit non-zero below this many predictions/s (0 disables)")
		note     = flag.String("note", "", "loadgen: free-form note recorded in the benchmark file")
	)
	flag.Parse()

	quality := contender.NewQuality(contender.DriftConfig{})
	metrics := contender.NewMetrics()
	// The server folds every explain-flagged prediction it answers into
	// the blame matrix; /blame serves the report beside /quality.
	blame := contender.NewBlame(contender.BlameConfig{TopK: *blameTop})

	var sopts []contender.ServeOption
	sopts = append(sopts, contender.WithServeBlame(blame))
	if *slowLog >= 0 {
		sopts = append(sopts, contender.WithSlowLog(os.Stderr, *slowLog))
	}
	if *shards > 0 {
		sopts = append(sopts, contender.WithShards(*shards))
	}
	if *ring > 0 {
		sopts = append(sopts, contender.WithFeedbackRing(*ring))
	}
	if *maxBatch > 0 {
		sopts = append(sopts, contender.WithMaxBatch(*maxBatch))
	}
	if *rate > 0 || *inflight > 0 {
		sopts = append(sopts, contender.WithAdmission(*rate, *burst, *inflight))
	}
	sopts = append(sopts, contender.WithServeObserver(metrics))

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	// Obtain a predictor: snapshot load is instant; otherwise train the
	// bundled workload on the simulated host.
	var pred *contender.Predictor
	var pool []int
	if *load != "" {
		var err error
		pred, err = contender.LoadPredictorFile(*load)
		if err != nil {
			fatal(err)
		}
		pred.SetQuality(quality)
		pred.SetObserver(metrics)
	} else {
		fmt.Fprintf(os.Stderr, "training Contender (mixes at MPLs up to %d)...\n", *maxMPL)
		topts := []contender.Option{}
		if *quick {
			topts = append(topts, contender.QuickSampling())
		}
		topts = append(topts,
			contender.WithMPLs(cliutil.MPLsUpTo(*maxMPL)...),
			contender.WithSeed(*seed),
			contender.WithWorkers(*workers),
			contender.WithQuality(quality),
			contender.WithObserver(metrics),
		)
		wb, err := contender.NewWorkbenchContext(ctx, topts...)
		if err != nil {
			fatal(err)
		}
		pred, err = wb.Train()
		if err != nil {
			fatal(err)
		}
		pool = wb.TemplateIDs()
		if *loadgen {
			srv, err := wb.Serve(ctx, pred, "127.0.0.1:0", sopts...)
			if err != nil {
				fatal(err)
			}
			runLoadgen(srv, metrics, quality, blame, pool, loadgenConfig{
				conns: *lgConns, batch: *lgBatch, ops: *lgOps, seed: *lgSeed,
				mixMax: *maxMPL - 1, out: *benchOut, minRate: *minRate, note: *note,
			})
			return
		}
		serveForever(ctx, wb, pred, *addr, *maddr, metrics, quality, blame, sopts)
		return
	}
	if *loadgen {
		fatal(fmt.Errorf("-loadgen needs a trained workbench (drop -load): the generator draws mixes from the trained template pool"))
	}
	// Snapshot path: no workbench, build the stack piecewise.
	sharded, err := contender.NewSharded(pred, sopts...)
	if err != nil {
		fatal(err)
	}
	srv, err := contender.NewServer(sharded, sopts...)
	if err != nil {
		fatal(err)
	}
	bound, err := srv.ListenBinary(*addr)
	if err != nil {
		fatal(err)
	}
	runServer(ctx, srv, bound, *maddr, metrics, quality, blame)
}

// serveForever is the trained-workbench serving path: one
// Workbench.Serve call, then block until interrupted.
func serveForever(ctx context.Context, wb *contender.Workbench, pred *contender.Predictor, addr, maddr string, metrics *contender.Metrics, quality *contender.Quality, blame *contender.Blame, sopts []contender.ServeOption) {
	srv, err := wb.Serve(ctx, pred, addr, sopts...)
	if err != nil {
		fatal(err)
	}
	runServer(ctx, srv.Server, srv.BinaryAddr(), maddr, metrics, quality, blame)
}

// runServer mounts the HTTP front (when -metrics-addr is set), prints
// the bound addresses, and blocks until the context is cancelled; the
// server then drains and exits.
func runServer(ctx context.Context, srv *contender.Server, binaryAddr, maddr string, metrics *contender.Metrics, quality *contender.Quality, blame *contender.Blame) {
	fmt.Fprintf(os.Stderr, "serve: binary protocol on %s\n", binaryAddr)
	if maddr != "" {
		bound, stopHTTP, err := cliutil.ServeMetrics(maddr, metrics, quality, blame,
			cliutil.Mount{Pattern: "/v1/", Handler: srv.Handler()})
		if err != nil {
			fatal(err)
		}
		defer stopHTTP()
		fmt.Fprintf(os.Stderr, "serve: http://%s/v1/predict (also /v1/predict_batch, /v1/feedback, /metrics, /quality, /blame)\n", bound)
	}
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "serve: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "contender-serve: shutdown:", err)
	}
}

type loadgenConfig struct {
	conns, batch, ops int
	seed              int64
	mixMax            int
	out               string
	minRate           float64
	note              string
}

// serveRow is one BENCH_serve.json benchmark row; it embeds the
// loadgen result (predictions/s, checksums, parity) under a stable
// row name.
type serveRow struct {
	Name string `json:"name"`
	serve.LoadgenResult
}

type serveReport struct {
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Note       string     `json:"note,omitempty"`
	Rows       []serveRow `json:"rows"`
}

// runLoadgen drives both protocol fronts of an in-process server with
// the deterministic generator, verifies binary/HTTP payload parity,
// and writes the benchmark row. Exits non-zero on parity violation or
// a throughput floor miss.
func runLoadgen(srv *contender.BoundServer, metrics *contender.Metrics, quality *contender.Quality, blame *contender.Blame, pool []int, cfg loadgenConfig) {
	httpAddr, stopHTTP, err := cliutil.ServeMetrics("127.0.0.1:0", metrics, quality, blame,
		cliutil.Mount{Pattern: "/v1/", Handler: srv.Handler()})
	if err != nil {
		fatal(err)
	}
	defer stopHTTP()

	res, err := serve.RunLoadgen(serve.LoadgenConfig{
		Addr:     srv.BinaryAddr(),
		HTTPBase: "http://" + httpAddr,
		Conns:    cfg.conns,
		Batch:    cfg.batch,
		Ops:      cfg.ops,
		Seed:     cfg.seed,
		Pool:     pool,
		MixMax:   cfg.mixMax,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: %d predictions in %.3fs over %d conns (batch %d)\n",
		res.Predictions, res.ElapsedSec, res.Conns, res.Batch)
	fmt.Printf("loadgen: %.0f predictions/s (binary protocol)\n", res.PredictionsPerSec)
	fmt.Printf("loadgen: checksum %s, http parity %v\n", res.Checksum, res.Parity)

	if cfg.out != "" {
		rep := serveReport{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Note:       cfg.note,
			Rows:       []serveRow{{Name: "ServeBinaryBatch", LoadgenResult: res}},
		}
		if err := writeJSONFile(cfg.out, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", cfg.out)
	}
	if cfg.minRate > 0 && res.PredictionsPerSec < cfg.minRate {
		fatal(fmt.Errorf("throughput %.0f predictions/s below the -min-rate floor %.0f", res.PredictionsPerSec, cfg.minRate))
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "contender-serve:", err)
	os.Exit(1)
}
