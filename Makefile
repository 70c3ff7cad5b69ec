GO ?= go

.PHONY: all vet build test race race-parallel bench-smoke bench bench-json bench-gate perf perfbench fuzz-smoke trace-gate fault-smoke oracle-sweep parallel-smoke obs-smoke scale-smoke ci

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a separate module (perfbench/go.mod), so the
# root `go test ./...` never compiles it, although it reads Result
# fields and Machine.Shards().
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Unit-test packages under the race detector with the TxTable lifecycle
# assertions compiled in (mirrors the CI race job).
race:
	$(GO) test -race -tags txdebug ./internal/...

# Race-detect the sharded parallel engine on 4 scheduler threads
# (mirrors the CI race job's parallel leg): the bounded litmus
# conformance subset at 4 shards plus the sharded-engine property test.
# The full conformance suite under -race costs ~100x wall time, so the
# race leg deliberately runs these small, protocol-complete targets.
race-parallel:
	GOMAXPROCS=4 $(GO) test -race -run 'TestParallelLitmusEveryProtocol' .
	GOMAXPROCS=4 $(GO) test -race ./internal/sim/

# Quick benchmark smoke: exercises the perf-critical paths without the
# full figure grids.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngineStep|BenchmarkEngineIdleSkip|BenchmarkDenseCompute|BenchmarkMeshDelivery|BenchmarkL1HitPath|BenchmarkTraceCodec' -benchtime 2000x .

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Simulator throughput JSON (for BENCH_*.json trajectories).
perf:
	$(GO) run ./cmd/tsocc-bench -perf -cores 8

# Dated engine + hot-path throughput snapshot (per-cycle, event, and
# batched-core numbers for the standard benches plus dense-compute,
# with trace replay/codec throughput and host metadata per benchmark,
# plus the 8->256-core scaling curve), then a delta report against the
# latest committed snapshot and the event>=per-cycle regression gate —
# which also requires event >= per-cycle on every scaling point at
# >= 64 cores.
bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	latest=$$(git ls-files 'BENCH_*.json' | sort | tail -1); \
	out=BENCH_$$(date +%Y-%m-%d).json; \
	$(GO) run ./cmd/tsocc-bench -perf -cores 8 -scaling 8,64,128,256 > $$out; \
	echo "wrote $$out"; \
	if [ -n "$$latest" ]; then \
	  git show HEAD:$$latest > $$tmp; \
	  echo "delta vs committed $$latest:"; \
	  $(GO) run ./cmd/tsocc-benchdiff -gate $$tmp $$out; \
	else \
	  $(GO) run ./cmd/tsocc-benchdiff -gate $$out; \
	fi

# Regression gate without writing a snapshot: the event engine must be
# at least as fast as the per-cycle conformance ticker on every Table-3
# benchmark, and if the default -shards setting builds the sharded
# engine on >= 2 CPUs it must be at least as fast as serial (speedups
# are within-run ratios, so this is stable across machines; mirrors the
# CI bench job). -scale 4 lengthens each timed
# run (x264 is only ~8k cycles at scale 1 — a few ms of wall time) so
# one scheduler blip on a noisy runner cannot flip the ratio.
bench-gate:
	@set -e; tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	$(GO) run ./cmd/tsocc-bench -perf -cores 8 -scale 4 > $$tmp; \
	$(GO) run ./cmd/tsocc-benchdiff -gate $$tmp

# Short fuzz iteration of the trace codec round-trip property (the CI
# fuzz smoke; the corpus grows under internal/trace/testdata).
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzTraceRoundTrip -fuzztime 10s ./internal/trace

# Fault-injection smoke: the litmus suite with invariant oracles armed
# under two fault profiles × two protocols (mirrors the CI fault job);
# any TSO-forbidden outcome, oracle violation or deadlock fails.
fault-smoke:
	@set -e; for prof in jitter pressure; do for proto in MESI TSO-CC-4-12-3; do \
	  echo "fault smoke: $$prof / $$proto"; \
	  $(GO) run ./cmd/tsocc-litmus -iters 25 -proto $$proto \
	    -faults $$prof -fault-seed 7 -checks > /dev/null; \
	done; done; echo "fault smoke: all oracles clean"

# Protocol-legality oracle sweep: the litmus suite with the
# state-transition legality tables, TxTable lifecycle audit, and memory
# oracles armed under the directory-side fault profiles (forced
# self-evictions, timestamp-reset storms, delayed PutAcks, and a
# composite) × two protocols. Any illegal state transition, leaked
# transaction, oracle violation or deadlock fails. The randomized
# 20-seed version runs in `go test ./...` as TestFaultSweepOracles, and
# the seeded-bug end-to-end gate (oracle catches a planted illegal
# transition, shrinker reduces it) as TestSeededLegalityBugShrinks.
oracle-sweep:
	@set -e; for prof in evict reset-storm victim "jitter:rate=200+evict:rate=80"; do \
	for proto in MESI TSO-CC-4-12-3; do \
	  echo "oracle sweep: $$prof / $$proto"; \
	  $(GO) run ./cmd/tsocc-litmus -iters 25 -proto $$proto \
	    -faults "$$prof" -fault-seed 11 -checks > /dev/null; \
	done; done; echo "oracle sweep: all legality tables and lifecycle audits clean"

# Parallel-engine smoke: the litmus suite through the tsocc-litmus CLI
# at 1, 2 and 4 shards × two protocols (mirrors the CI parallel job).
# Shards=1 is the single-threaded engine, so the sweep covers both
# engine flavors end to end; any TSO-forbidden outcome fails. Stats
# bit-identity across shard counts is pinned by TestParallel* in the
# test suite.
parallel-smoke:
	@set -e; for shards in 1 2 4; do for proto in MESI TSO-CC-4-12-3; do \
	  echo "parallel smoke: shards=$$shards / $$proto"; \
	  $(GO) run ./cmd/tsocc-litmus -iters 25 -proto $$proto -shards $$shards > /dev/null; \
	done; done; echo "parallel smoke: all shard counts TSO-clean"

# Record → replay → diff-stats conformance over a small grid (mirrors
# the CI trace gate).
trace-gate:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	for bench in x264 ssca2; do for proto in MESI TSO-CC-4-12-3; do \
	  echo "trace gate: $$bench / $$proto"; \
	  $(GO) run ./cmd/tsocc-trace record -bench $$bench -proto $$proto -cores 8 \
	    -o $$tmp/t.trc -stats $$tmp/rec.txt > /dev/null; \
	  $(GO) run ./cmd/tsocc-trace replay -i $$tmp/t.trc -stats $$tmp/rep.txt > /dev/null; \
	  diff $$tmp/rec.txt $$tmp/rep.txt; \
	done; done; echo "trace gate: record/replay stats identical"

# Observability smoke (mirrors the CI obs job): an 8-core canneal run
# and a bounded litmus run each emit a metrics-registry dump and a
# Chrome trace-event timeline; both timelines must be well-formed
# (matched async begin/end — the validator is the same check Perfetto
# applies on load) and both metrics dumps must carry counter and
# histogram series. Then the bounded no-perturbation gate: obs-on vs
# obs-off fingerprints bit-identical, plus the timeline unit tests
# (golden file, fuzz-lite, early-termination flush).
obs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	echo "obs smoke: tsocc-sim canneal / 8 cores"; \
	$(GO) run ./cmd/tsocc-sim -bench canneal -cores 8 \
	  -metrics $$tmp/sim-metrics.json -timeline $$tmp/sim-timeline.json > /dev/null; \
	echo "obs smoke: tsocc-litmus / TSO-CC-4-12-3"; \
	$(GO) run ./cmd/tsocc-litmus -iters 10 -proto TSO-CC-4-12-3 \
	  -metrics $$tmp/lit-metrics.json -timeline $$tmp/lit-timeline.json > /dev/null; \
	$(GO) run ./internal/obs/validate $$tmp/sim-timeline.json $$tmp/lit-timeline.json; \
	$(GO) run ./internal/obs/validate -metrics $$tmp/sim-metrics.json $$tmp/lit-metrics.json; \
	$(GO) test -run 'TestObsOnOffBitIdentical' . ; \
	$(GO) test -run 'TestTimeline|TestRegistry' ./internal/obs/; \
	echo "obs smoke: timelines well-formed, metrics populated, on/off bit-identical"

# Scaling smoke (mirrors the CI scale job): the 64-core conformance
# fingerprint — canneal and ssca2 end to end on an 8x8 mesh, crossed
# over engine mode × batched core × shard count × checks × obs × faults
# × trace replay (TestScale64*) — plus the per-link contention
# properties (flit-hop conservation, HopDistance/XY agreement) at 64,
# 128 and 256 tiles, and a race-detector leg over the contention path:
# the mesh property tests plus one sharded real-workload conformance
# cell, where the coordinator goroutine replays cross-tile sends into
# the shared link-reservation table while shard goroutines tick. The
# race cell stays at 4 cores — 64-core runs under -race cost tens of
# minutes and race coverage depends on the code paths, not the
# geometry. Bounded by design; the full scaling curve lives in
# `tsocc-bench -perf -scaling`, not CI.
scale-smoke:
	$(GO) test -run 'TestScale64' .
	$(GO) test -run 'TestFlitHopConservation|TestHopDistanceMatchesXYRoute|TestLinkEpochRebase' ./internal/mesh/
	GOMAXPROCS=4 $(GO) test -race -run 'TestFlitHopConservation|TestLinkEpochRebase' ./internal/mesh/
	GOMAXPROCS=4 $(GO) test -race -run 'TestParallelEngineBitIdentical/TSO-CC-4-12-3/canneal$$' .

ci: vet build test perfbench race race-parallel bench-smoke bench-gate trace-gate fault-smoke oracle-sweep parallel-smoke obs-smoke scale-smoke
