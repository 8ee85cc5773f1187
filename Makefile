GO ?= go

.PHONY: all build check batch-equiv cluster-smoke chaos-smoke traffic-smoke storm-smoke scale-smoke fuzz-smoke bench-test obs-smoke test test-short vet bench bench-experiments report examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast correctness gate: every file gofmt-clean, vet everything, race-test
# the telemetry record path, the daemon that drives it, the worker pool,
# and the concurrent experiment engine (heavy serial simulations skip
# themselves under -race; the engine's concurrency tests still run).
check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry/... ./internal/core/... ./internal/runner/... ./internal/experiments/... ./internal/cluster/... ./internal/faults/...

# Interval-batching equivalence gate: the per-scenario differential
# suite (internal/machine/equiv) plus the registry-wide test over every
# experiment (HOLMES_EQUIV_FULL=1), under -race. Any batching on/off or
# parallelism divergence fails; the mismatched renderings land in
# equiv-diff/ for CI to upload as an artifact.
batch-equiv:
	$(GO) test -race -count=1 ./internal/machine/equiv
	HOLMES_EQUIV_FULL=1 HOLMES_EQUIV_DIFF_DIR=equiv-diff \
		$(GO) test -race -count=1 -timeout 50m -run TestRegistryBatchingEquivalence ./internal/experiments

# Tiny end-to-end cluster run: two nodes, two services, a short window,
# both placement policies. Exercises boot -> placement -> heartbeats ->
# reap -> render without the full default fleet.
cluster-smoke:
	$(GO) run ./cmd/holmes-cluster -nodes 2 -cores 4 -services 2 \
		-warmup 0.2 -duration 0.5 -batch-pods 4 -placer both

# Tiny chaos run: the same small fleet under the default deterministic
# fault schedule, once with graceful degradation and once without, so CI
# exercises watchdog/safe-mode, the failure detector and rescheduling.
chaos-smoke:
	$(GO) run ./cmd/holmes-cluster -nodes 3 -cores 4 -services 2 \
		-warmup 0.2 -duration 1.0 -batch-pods 6 -chaos
	$(GO) run ./cmd/holmes-cluster -nodes 3 -cores 4 -services 2 \
		-warmup 0.2 -duration 1.0 -batch-pods 6 -chaos -no-degrade

# Compressed-day traffic run: a small fleet driving the default diurnal
# topology (replicated services, least-queue balancer, autoscaler) with a
# BestEffort backfill stream, rendered with the fleet dashboard into
# traffic-out/report.txt. CI uploads the directory as an artifact so every
# commit carries a readable traffic-plane report (request accounting,
# spike/trough SLO split, autoscaler sparklines).
traffic-smoke:
	mkdir -p traffic-out
	$(GO) run ./cmd/holmes-cluster -nodes 4 -cores 4 -traffic 120000 \
		-warmup 0.5 -duration 3.5 -batch-pods 12 -dashboard \
		> traffic-out/report.txt
	grep -q "request accounting" traffic-out/report.txt
	grep -q "conserved" traffic-out/report.txt
	@echo "traffic-smoke artifact in traffic-out/: report.txt"

# Full retry-storm chaos experiment: flash crowd + scripted node crash,
# three client-stack arms (naive retries / budgeted+breaker+shedding /
# no-retry control), rendered with its PASS/FAIL verdict into
# storm-out/report.txt. The grep gates CI on the verdict line itself; on
# FAIL the report embeds the flight-recorder bundle, and CI uploads the
# directory either way.
storm-smoke:
	mkdir -p storm-out
	$(GO) run ./cmd/holmes-bench storm > storm-out/report.txt
	grep -q "storm verdict" storm-out/report.txt
	grep -q "storm verdict.*PASS" storm-out/report.txt
	@echo "storm-smoke artifact in storm-out/: report.txt"

# Datacenter-scale placement experiment: a 256-node fleet on the sharded
# registry with LoD auto, three placement arms (scoring / vpi / binpack)
# over identical workloads, rendered with its PASS/FAIL verdict into
# scale-out/report.txt. The greps gate CI on the verdict line itself and
# on the pod-stream conservation identity holding in all three arms.
scale-smoke:
	mkdir -p scale-out
	$(GO) run ./cmd/holmes-bench scale > scale-out/report.txt
	grep -q "scale verdict" scale-out/report.txt
	grep -q "scale verdict.*PASS" scale-out/report.txt
	test "$$(grep -c ": conserved" scale-out/report.txt)" -eq 3
	@echo "scale-smoke artifact in scale-out/: report.txt"

# Short fuzz smoke: a few seconds per fuzz target over the codec and
# generator corpora. CI runs this; `go test` alone only replays seeds.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRecordRoundTrip -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/kvstore
	$(GO) test -run=^$$ -fuzz=FuzzZipf -fuzztime=10s ./internal/rng
	$(GO) test -run=^$$ -fuzz=FuzzScrambledZipf -fuzztime=10s ./internal/rng
	$(GO) test -run=^$$ -fuzz=FuzzChaosSpec -fuzztime=10s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzIntervalEquivalence -fuzztime=15s ./internal/machine/equiv

# The benchmark harness under bench/ is its own Go module, so the root
# `go test ./...` skips it. This runs its tests (stats helpers, workload
# smoke runs, and the check that its hand-composed node matches
# experiments.RunColocation) with bench/run.sh's environment: local
# toolchain, no module proxy, no workspace.
bench-test:
	cd bench && GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) test ./...

# Observability smoke: the Chrome-trace schema check and golden span-tree
# test, then a small traced cluster run that exports the span timeline,
# the flight-recorder bundle and the text dashboard into obs-out/. CI
# uploads the directory as an artifact, so every commit carries an openable
# trace (Perfetto / chrome://tracing) and a readable post-mortem bundle.
obs-smoke:
	$(GO) test -run 'TestGoldenEvictionSpanChain|TestObsChromeTraceValid|TestObsDeterministicAcrossWorkers' ./internal/cluster/
	$(GO) test -run 'TestChromeTrace|TestWriteSpansJSONL' ./internal/telemetry/
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

# Every paper table/figure as a benchmark, plus the store micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Only the paper-experiment benchmarks at the repository root.
bench-experiments:
	$(GO) test -bench=. -benchmem .

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
