GO ?= go

.PHONY: all build check batch-equiv smoke fuzz-smoke bench-test obs-smoke test test-short vet bench evaluation report examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast correctness gate: every file gofmt-clean, vet everything, race-test
# the telemetry record path, the daemon that drives it, the worker pool,
# the concurrent experiment engine (heavy serial simulations skip
# themselves under -race; the engine's concurrency tests still run), the
# YCSB value pool's concurrent first use, the stores it feeds, the
# process-wide Zipf normaliser memo, and holmesd's HTTP endpoints served
# while a simulation writes the telemetry they read.
check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry/... ./internal/core/... ./internal/runner/... ./internal/experiments/... ./internal/cluster/... ./internal/faults/... \
		./internal/ycsb/... ./internal/lcservice/... ./internal/traffic/... ./internal/kvstore/... ./internal/rng/... \
		./cmd/holmesd/...

# Interval-batching equivalence gate: the per-scenario differential
# suite (internal/machine/equiv) plus the registry-wide test, which renders
# every experiment (HOLMES_EQUIV_FULL=1) with batching on and off, serially
# and across eight workers, under -race, and compares each rendering with
# its golden. Divergent renderings land in equiv-diff/ for CI to upload.
batch-equiv:
	$(GO) test -race -count=1 ./internal/machine/equiv
	HOLMES_EQUIV_FULL=1 HOLMES_EQUIV_DIFF_DIR=equiv-diff \
		$(GO) test -race -count=1 -timeout 50m -run TestRegistryBatchingEquivalence ./internal/experiments

# End-to-end smoke, gated by exit status alone: a tiny two-node cluster
# under both placers; the default fault schedule with and without graceful
# degradation; a compressed traffic day (holmes-cluster exits 1 if request
# accounting is not conserved); and the storm and scale experiments
# (holmes-bench exits 1 unless the verdict is PASS). The traffic, storm and
# scale reports land in traffic-out/, storm-out/ and scale-out/ for CI to
# upload; on a FAIL the storm report embeds the flight-recorder bundle.
smoke:
	$(GO) run ./cmd/holmes-cluster -nodes 2 -cores 4 -services 2 \
		-warmup 0.2 -duration 0.5 -batch-pods 4 -placer both
	$(GO) run ./cmd/holmes-cluster -nodes 3 -cores 4 -services 2 \
		-warmup 0.2 -duration 1.0 -batch-pods 6 -chaos
	$(GO) run ./cmd/holmes-cluster -nodes 3 -cores 4 -services 2 \
		-warmup 0.2 -duration 1.0 -batch-pods 6 -chaos -no-degrade
	mkdir -p traffic-out storm-out scale-out
	$(GO) run ./cmd/holmes-cluster -nodes 4 -cores 4 -traffic 120000 \
		-warmup 0.5 -duration 3.5 -batch-pods 12 -dashboard \
		> traffic-out/report.txt
	$(GO) run ./cmd/holmes-bench storm > storm-out/report.txt
	$(GO) run ./cmd/holmes-bench scale > scale-out/report.txt

# Short fuzz smoke: a few seconds per fuzz target over the codec,
# generator and chaos-spec corpora, the LRU (its open-addressing index
# against the container/list oracle), the skiplist (its slab nodes and
# append finger against the pointer oracle), store clones (a clone of a
# preloaded image against a fresh load, for all four stores) and
# interval batching. CI runs this; `go test` alone only replays seeds.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRecordRoundTrip -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzLRUOracle -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzSkiplistOracle -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzCloneOracle -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzZipf -fuzztime=10s ./internal/rng
	$(GO) test -run=^$$ -fuzz=FuzzScrambledZipf -fuzztime=10s ./internal/rng
	$(GO) test -run=^$$ -fuzz=FuzzChaosSpec -fuzztime=10s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzIntervalEquivalence -fuzztime=15s ./internal/machine/equiv

# The benchmark harness under bench/ is its own Go module, so the root
# `go vet ./...` and `go test ./...` skip it. This vets it and runs its
# tests (stats helpers, workload smoke runs, and the check that its
# hand-composed node matches experiments.RunColocation) with
# bench/run.sh's environment: local toolchain, no module proxy, no
# workspace.
bench-test:
	cd bench && GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) vet ./...
	cd bench && GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) test ./...

# Observability smoke: the Chrome-trace schema check, the golden span-tree
# test and the check that every registry daemon records spans, then a
# small traced cluster run that exports the span timeline,
# the flight-recorder bundle and the text dashboard into obs-out/. CI
# uploads the directory as an artifact, so every commit carries an openable
# trace (Perfetto / chrome://tracing) and a readable post-mortem bundle.
obs-smoke:
	$(GO) test -run 'TestGoldenEvictionSpanChain|TestObsChromeTraceValid|TestObsDeterministicAcrossWorkers' ./internal/cluster/
	$(GO) test -run 'ChromeTrace|TestWriteSpansJSONL' ./internal/telemetry/
	$(GO) test -run 'TestRegistryDaemonsRecordSpans' ./internal/experiments/
	mkdir -p obs-out
	$(GO) run ./cmd/holmes-cluster -nodes 3 -cores 4 -services 2 \
		-warmup 0.2 -duration 1.0 -batch-pods 6 -chaos -dashboard \
		-trace-out obs-out/trace.json -flight-out obs-out/flight.txt \
		> obs-out/dashboard.txt
	@echo "obs-smoke artifacts in obs-out/: trace.json flight.txt dashboard.txt"

test: check
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The micro-benchmarks: stores, telemetry record path, placement, RNG.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Regenerate the whole evaluation as text and as an HTML report.
evaluation:
	$(GO) run ./cmd/holmes-bench -o out all
	$(GO) run ./cmd/holmes-bench -o out report

report:
	$(GO) run ./cmd/holmes-bench report

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/diagnosis
	$(GO) run ./examples/colocation
	$(GO) run ./examples/tuning
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/kubernetes

clean:
	rm -rf out obs-out traffic-out storm-out scale-out equiv-diff holmes-report.html test_output.txt bench_output.txt
