GO ?= go

.PHONY: all build test race vet vet-v2 fuzz-smoke wire-lock staticcheck bench-guard selfheal-golden blame-golden serve-smoke clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bin/contender-vet: FORCE
	$(GO) build -o $@ ./cmd/contender-vet

# Run the invariant suite both standalone and through go vet's vettool
# protocol (the two paths exercise different loaders).
vet: bin/contender-vet
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

# Thirty-second native fuzz smoke over the binary frame decoder, on top
# of the checked-in seed corpus in internal/serve/testdata/fuzz.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s -run '^$$' ./internal/serve/

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

# Every serving benchmark row must report 0 allocs/op. Rows are matched
# exactly (modulo the -GOMAXPROCS suffix) so one row's budget never
# silently applies to another; the in-process complement is
# TestServingPathDoesNotAllocate, the static one the hotpathalloc
# analyzer.
BENCH_GUARD_ROWS = \
	BenchmarkPredictKnown \
	BenchmarkPredictExplain \
	BenchmarkPredictBatch/mixes=4 \
	BenchmarkPredictBatch/mixes=16 \
	BenchmarkPredictBatch/mixes=64 \
	BenchmarkPredictBatch/random256 \
	BenchmarkPredictKnownFeedback \
	BenchmarkShardedPredict \
	BenchmarkShardedObserve

bench-guard:
	$(GO) test -run TestServingPathDoesNotAllocate -v ./internal/core/
	@out=$$($(GO) test -run XXX -bench 'BenchmarkPredictKnown$$|BenchmarkPredictExplain$$|BenchmarkPredictBatch$$|BenchmarkPredictKnownFeedback$$|BenchmarkShardedPredict$$|BenchmarkShardedObserve$$' -benchtime 100x .); \
	echo "$$out"; \
	for b in $(BENCH_GUARD_ROWS); do \
		allocs=$$(echo "$$out" | awk -v b="$$b" '$$1 ~ ("^" b "(-[0-9]+)?$$") && $$NF == "allocs/op" {print $$(NF-1)}'); \
		if [ -z "$$allocs" ] || [ "$$allocs" != "0" ]; then \
			echo "$$b reports $${allocs:-?} allocs/op; must be 0" >&2; \
			exit 1; \
		fi; \
	done

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

# The serving layer's end-to-end gate: drive both protocol fronts with
# the deterministic load generator, require binary/HTTP payload parity
# and a conservative throughput floor, and require the checksum to
# reproduce across two runs (mirrors the CI serve-smoke job).
serve-smoke:
	$(GO) run ./cmd/contender-serve -quick -loadgen -loadgen-ops 500 \
		-min-rate 100000 -bench-out /tmp/serve-smoke-1.json
	$(GO) run ./cmd/contender-serve -quick -loadgen -loadgen-ops 500 \
		-min-rate 100000 -bench-out /tmp/serve-smoke-2.json
	@c1=$$(grep '"checksum"' /tmp/serve-smoke-1.json); \
	c2=$$(grep '"checksum"' /tmp/serve-smoke-2.json); \
	if [ "$$c1" != "$$c2" ]; then \
		echo "serve-smoke: checksum not reproducible: $$c1 vs $$c2" >&2; \
		exit 1; \
	fi; \
	echo "serve-smoke: reproducible $$c1"
	rm -f /tmp/serve-smoke-1.json /tmp/serve-smoke-2.json

clean:
	rm -rf bin

FORCE:
