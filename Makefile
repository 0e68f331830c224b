GO ?= go

.PHONY: all build test race vet vet-v2 fuzz-smoke wire-lock staticcheck bench-guard chaos-golden selfheal-golden blame-golden paper-golden bench-record loc clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bin/contender-vet: FORCE
	$(GO) build -o $@ ./cmd/contender-vet

# Fail on any file gofmt would change (testdata included), then run the
# invariant suite both standalone and through go vet's vettool protocol
# (the two paths exercise different loaders).
vet: bin/contender-vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists unformatted files:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	./bin/contender-vet ./...
	$(GO) vet -vettool=./bin/contender-vet ./...

# The expanded invariant suite plus the wire-contract freshness gate:
# run every analyzer, then regenerate the lock and fail if the bytes
# differ from the checked-in internal/serve/wire.lock — a drifted lock
# means the wire schema changed without a conscious `make wire-lock`.
vet-v2: bin/contender-vet
	./bin/contender-vet ./...
	@tmp=$$(mktemp); cp internal/serve/wire.lock $$tmp; \
	./bin/contender-vet -write-wire-lock >/dev/null; \
	if ! cmp -s internal/serve/wire.lock $$tmp; then \
		mv $$tmp internal/serve/wire.lock; \
		echo "internal/serve/wire.lock is stale: run 'make wire-lock' and commit the result" >&2; \
		exit 1; \
	fi; \
	rm -f $$tmp; echo "wire.lock is in sync"

# Thirty-second native fuzz smokes: the binary frame decoder and the
# HTTP bodies (the served handler held byte for byte to the
# encoding/json reference), on top of the checked-in seed corpora in
# internal/serve/testdata/fuzz, the training-checkpoint loader, resumed
# into a small campaign, the knowledge store opened over a mutated
# manifest and snapshot blob, and the CQI kernel held to the naive
# oracle on knowledge bases drawn from a fuzzed seed and shape.
# Minimizing a new input is capped at 200 runs where one input is
# expensive (every HTTP body runs six handlers, every accepted
# checkpoint a campaign, every oracle shape a knowledge base), to leave
# the time for fuzzing.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzHTTPBody -fuzztime=30s -fuzzminimizetime=200x -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzLoadCheckpoint -fuzztime=30s -fuzzminimizetime=200x -run '^$$' ./internal/experiments/
	$(GO) test -fuzz=FuzzStoreOpen -fuzztime=30s -fuzzminimizetime=200x -run '^$$' ./internal/store/
	$(GO) test -fuzz=FuzzOracle -fuzztime=30s -fuzzminimizetime=200x -run '^$$' ./internal/core/

# Regenerate the wire-contract lock after a deliberate schema change.
# Breaking changes (removed/retyped v1 surface) must bump serve.Version
# first; wirecompat fails the build otherwise.
wire-lock: bin/contender-vet
	./bin/contender-vet -write-wire-lock

# Requires the staticcheck binary (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest). Configuration
# lives in staticcheck.conf.
staticcheck:
	staticcheck ./...

# Every serving benchmark row must report 0 allocs/op, observed by the
# Metrics observer or not, and so must reseeding a used simulator engine
# (a campaign does it once per task attempt) and a whole steady-state run
# on it (once per mix task). Rows are matched exactly (modulo the -GOMAXPROCS suffix) so
# one row's budget never silently applies to another. The in-process
# complement is TestServingPathDoesNotAllocate, run first: it counts
# every allocation over 100 warm calls of each serving entry point, bare
# and observed, on four mix shapes (one longer than the CQI kernel's
# sharer counters hold). CI's bench guard step runs this target.
BENCH_GUARD_ROWS = \
	BenchmarkPredictKnown \
	BenchmarkPredictKnownObserved \
	BenchmarkPredictKnownObservedParallel \
	BenchmarkPredictExplain \
	BenchmarkPredictBatch/mixes=4 \
	BenchmarkPredictBatch/mixes=16 \
	BenchmarkPredictBatch/mixes=64 \
	BenchmarkPredictBatch/random256 \
	BenchmarkPredictKnownFeedback \
	BenchmarkShardedPredict \
	BenchmarkShardedObserve \
	BenchmarkDecodeBatchFrame \
	BenchmarkEngineReseed \
	BenchmarkRunSteadyState

# contender-serve's start-up path (BenchmarkEnvBuild/startup: the campaign
# one task at a time, then the fit) must stay under a bytes ceiling about
# 10% over what it allocates (725 kB). No GC runs before the server's
# first listen, so those bytes are peak RSS; and B/op does not depend on
# the host, so a copy of the observations that creeps back fails on any
# machine. The row is matched exactly, like the allocs rows.
STARTUP_MAX_BYTES = 800000

bench-guard:
	$(GO) test -run TestServingPathDoesNotAllocate -v ./internal/core/
	@out=$$($(GO) test -run XXX -bench 'BenchmarkPredictKnown$$|BenchmarkPredictKnownObserved$$|BenchmarkPredictKnownObservedParallel$$|BenchmarkPredictExplain$$|BenchmarkPredictBatch$$|BenchmarkPredictKnownFeedback$$|BenchmarkShardedPredict$$|BenchmarkShardedObserve$$' -benchtime 100x . && \
		$(GO) test -run XXX -bench 'BenchmarkDecodeBatchFrame$$' -benchtime 100x ./internal/serve/ && \
		$(GO) test -run XXX -bench 'BenchmarkEngineReseed$$|BenchmarkRunSteadyState$$' -benchtime 100x ./internal/sim/); \
	echo "$$out"; \
	for b in $(BENCH_GUARD_ROWS); do \
		allocs=$$(echo "$$out" | awk -v b="$$b" '$$1 ~ ("^" b "(-[0-9]+)?$$") && $$NF == "allocs/op" {print $$(NF-1)}'); \
		if [ -z "$$allocs" ] || [ "$$allocs" != "0" ]; then \
			echo "$$b reports $${allocs:-?} allocs/op; must be 0" >&2; \
			exit 1; \
		fi; \
	done
	@out=$$($(GO) test -run XXX -bench 'BenchmarkEnvBuild/startup$$' -benchtime 20x .); \
	echo "$$out"; \
	bytes=$$(echo "$$out" | awk '$$1 ~ /^BenchmarkEnvBuild\/startup(-[0-9]+)?$$/ {for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i}'); \
	if [ -z "$$bytes" ] || [ "$$bytes" -gt $(STARTUP_MAX_BYTES) ]; then \
		echo "BenchmarkEnvBuild/startup reports $${bytes:-?} B/op; ceiling $(STARTUP_MAX_BYTES)" >&2; \
		exit 1; \
	fi

# The chaos experiment (transient faults rescued by retries, a permanent
# fault quarantined) must render byte-identically at any collection
# worker count (mirrors the CI race job's chaos step).
chaos-golden:
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-chaos -workers 1 > /tmp/chaos-w1.txt
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-chaos -workers 8 > /tmp/chaos-w8.txt
	diff -u /tmp/chaos-w1.txt /tmp/chaos-w8.txt
	rm -f /tmp/chaos-w1.txt /tmp/chaos-w8.txt

# The self-healing lifecycle replay must render byte-identically at any
# collection worker count (mirrors the CI selfheal-golden job).
selfheal-golden:
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-selfheal -workers 1 > /tmp/selfheal-w1.txt
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-selfheal -workers 4 > /tmp/selfheal-w4.txt
	diff -u /tmp/selfheal-w1.txt /tmp/selfheal-w4.txt
	rm -f /tmp/selfheal-w1.txt /tmp/selfheal-w4.txt

# The blame-attribution replay decomposes every collected mix, hard-fails
# unless each decomposition reproduces PredictKnown bit-for-bit, and must
# render byte-identically at any collection worker count (mirrors the CI
# blame-golden job).
blame-golden:
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-blame -workers 1 > /tmp/blame-w1.txt
	$(GO) run ./cmd/contender-bench -quick -mpls 2,3 -experiments ext-blame -workers 4 > /tmp/blame-w4.txt
	diff -u /tmp/blame-w1.txt /tmp/blame-w4.txt
	rm -f /tmp/blame-w1.txt /tmp/blame-w4.txt

# docs/full-run.txt is the paper suite's stdout, byte for byte: run the
# suite at one collection worker and at the default width and diff both
# against the checked-in copy (mirrors the CI paper-golden job). After a
# deliberate change to the numbers, regenerate the file with
# `go run ./cmd/contender-bench > docs/full-run.txt`.
paper-golden:
	$(GO) run ./cmd/contender-bench -workers 1 > /tmp/paper-w1.txt
	$(GO) run ./cmd/contender-bench > /tmp/paper-wdefault.txt
	diff -u docs/full-run.txt /tmp/paper-w1.txt
	diff -u docs/full-run.txt /tmp/paper-wdefault.txt
	rm -f /tmp/paper-w1.txt /tmp/paper-wdefault.txt

# Record the serving benchmark: every workload of BENCHMARK.json, run
# untraced (the gated end-to-end metrics) and traced (the per-layer
# ladder), each for 20 s at seed 1. Each BENCH_<workload>.json names the
# machine and holds the two result lines bench/run.sh printed; commit
# them so every throughput figure in the docs cites a recorded row.
bench-record:
	@machine="$$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//'), $$(nproc) CPUs, $$(uname -sr), $$($(GO) env GOVERSION)"; \
	for w in point batch mixed http; do \
		echo "bench-record: $$w" >&2; \
		untraced=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0) || exit 1; \
		traced=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace 1) || exit 1; \
		traced=$$(echo "$$traced" | tail -n 1); \
		printf '{\n  "workload": "%s",\n  "machine": "%s",\n  "command": "bash bench/run.sh --workload %s --seed 1 --seconds 20 --trace 0|1",\n  "untraced": %s,\n  "traced": %s\n}\n' \
			"$$w" "$$machine" "$$w" "$$untraced" "$$traced" > BENCH_$$w.json; \
	done

# Print the non-test Go lines outside bench/ and testdata/: the size
# figure a change reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' -not -path './.git/*' -print0 | xargs -0 cat | wc -l

clean:
	rm -rf bin

FORCE:
