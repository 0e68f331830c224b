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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"contender"
	"contender/internal/cliutil"
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
		inflight = flag.Int("max-inflight", 0, "admission cap on in-flight HTTP requests (0 disables); a binary connection answers one frame at a time, so only -rate bounds it")
		slowLog  = flag.Duration("slowlog", -1, "log requests slower than this to stderr, admission to reply (0 logs every request; negative disables)")
		blameTop = flag.Int("blame-top", 0, "blame-ranking depth of the /blame report (0 = default 5)")
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
		serveForever(ctx, wb, pred, *addr, *maddr, metrics, quality, blame, sopts)
		return
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "contender-serve:", err)
	os.Exit(1)
}
