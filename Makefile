# SuperSim build/test/benchmark entry points.
#
#   make ci      - everything a merge must pass: build, vet, sslint, tests
#                  under the coverage floors (make cover; they include the
#                  fuzz seed corpora and golden-trace conformance runs), and
#                  the race detector over every package
#   make lint    - sslint, the simulator-aware static analysis suite
#                  (determinism, factoryreg, shardsafety, snapshotcomplete;
#                  see cmd/sslint and TESTING.md). Runs the
#                  fixture self-check first, then the repo, and writes the
#                  findings artifact sslint.findings.json
#   make lint-rules - list the active sslint rules with their one-line docs
#   make cover   - the test suite with per-package statement coverage against
#                  the committed floors in coverage_floors.txt; fails on a
#                  failing test or a package below its floor
#   make test-import-export - checkpoint/restore equivalence under -race: the
#                  simulation-after-import harness, cross-worker restores,
#                  and byte-exact snapshot round-trips
#   make fuzz    - short live fuzzing sessions on the config parsers and
#                  the ssparse and manifest readers
#   make bench   - the paper's table/figure benchmark suite with -benchmem
#   make micro   - the standalone hot-structure micro-benchmarks
#   make sweep-smoke - fleet-observability smoke: a tiny two-point sweep with
#                  journal, manifests and the live dashboard enabled, every
#                  downstream consumer (ssparse -tasks, ssplot taskgantt, the
#                  /sweep and /metrics endpoints) driven over its artifacts;
#                  bench-guard is its prerequisite, so the instrumentation is
#                  proven to keep the disabled hot path under the committed
#                  ceiling (once per make invocation, also inside make ci)
#   make bench-guard - allocation-regression guard: BenchmarkFigure5 (and the
#                  explicit workers=1 path) with telemetry disabled must stay
#                  under the ceiling committed in bench_ceiling.txt, and
#                  TestSteadyStateAllocBudget must hold every golden case to
#                  0.05 allocations per retired flit; also reports the traced
#                  workers=2 path informationally
#   make bench-guard-spans - the guard plus an informational run of the
#                  span-instrumented BenchmarkFigure5Spans (never enforced)
#   make bench-parallel - the Figure 5 transient at -workers 1/2/4 on the
#                  sharded engine (wall-clock is informational and
#                  hardware-dependent; results are identical at every count)
#   make perfbench-check - vet and self-test the benchmark module perfbench/
#                  (its own Go module, so root `go build/test ./...` never
#                  compiles it)

GO ?= go

.PHONY: all build vet lint lint-rules test race cover fuzz ci test-import-export bench micro bench-guard bench-guard-spans bench-parallel sweep-smoke perfbench-check

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Simulator-aware static analysis: determinism, factory-registration
# coverage, sync/atomic confinement and snapshot completeness. The
# fixture self-check replays the want-comment fixture packages so a drifted
# rule fails here, not just in `go test`; the repo run then writes its
# findings as a JSON artifact for CI consumption. The baseline file holds
# accepted findings (currently none); stale entries fail the run.
lint:
	$(GO) run ./cmd/sslint -fixtures
	$(GO) run ./cmd/sslint -baseline sslint.baseline -json-out sslint.findings.json ./...

lint-rules:
	$(GO) run ./cmd/sslint -list-rules

test:
	$(GO) test ./...

# The simulator proper is single-threaded by design, but taskrun/sweep drive
# it from worker goroutines and nothing stops a future package from doing the
# same — so CI races everything, not just the packages known to be concurrent.
# It is also the shard-ownership check: the sharded golden runs and the
# randomized sweep report any source-side touch of destination-shard state
# as a data race.
race:
	$(GO) test -race ./...

# The test suite with per-package statement coverage and committed floors: a
# failing test, or a drop below any package's floor in coverage_floors.txt,
# fails the target. ci runs it instead of a plain `test`, so the suite runs
# once.
cover:
	sh scripts/check_cover.sh coverage_floors.txt

# Short live fuzzing sessions on the input readers: the config loader and
# override parser, the ssparse transaction-log, spans and task-journal
# readers, and the run-manifest reader. The seed corpora (committed fixtures
# and testdata/fuzz crashers) run on every plain `go test`; this target
# actually explores beyond them.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoadConfig -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzSettingsOverride -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz='^FuzzLoadSpans$$' -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz='^FuzzLoadTasks$$' -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s ./internal/manifest

# Checkpoint/restore equivalence: the simulation-after-import harness (all
# golden topologies, serial and sharded), the cross-worker restore matrix,
# byte-exact snapshot round-trips, the committed snapshot digests, and the
# randomized checkpoint sweep — under
# the race detector, since restore re-partitions across shards.
test-import-export:
	$(GO) test -race -count=1 -run='TestCheckpointedRunMatchesGolden|TestSimulationAfterImport|TestRestoreAcrossWorkerCounts|TestSnapshotRoundTrip|TestSnapshotBytesPinned|TestRandomizedCheckpointRestore' ./internal/core
	$(GO) test -count=1 ./internal/snapshot

ci: build vet lint cover race test-import-export bench-guard sweep-smoke perfbench-check

# Fleet-observability smoke: the sweep→journal→manifest→parse→plot→dashboard
# pipeline end-to-end, behind the allocation guard against the unchanged
# ceiling — observability must stay free when disabled. See
# scripts/sweep_smoke.sh.
sweep-smoke: bench-guard
	sh scripts/sweep_smoke.sh

# The benchmark module's vet and self-test (all four workloads, about 30 s).
# Its traced pass runs the simulator with telemetry on, so simulator changes
# can break it without any root package noticing.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Hot-path allocation guard: the telemetry subsystem's "zero overhead when
# disabled" claim, enforced. See scripts/bench_guard.sh.
bench-guard:
	sh scripts/bench_guard.sh bench_ceiling.txt

# Same guard, plus the span-instrumented variant for overhead measurement
# (reported informationally, recorded in EXPERIMENTS.md; not part of ci).
bench-guard-spans:
	sh scripts/bench_guard.sh bench_ceiling.txt spans

# Serial-vs-parallel wall-clock on the Figure 5 transient. Informational:
# speedup depends on the host's core count (see EXPERIMENTS.md); correctness
# at every worker count is enforced by the golden-conformance tests instead.
bench-parallel:
	$(GO) test -run='^$$' -bench='BenchmarkFigure5Workers' -benchtime=1x -benchmem .

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

micro:
	$(GO) test -run='^$$' -bench='BenchmarkNewMessage|BenchmarkPoolNewMessage' -benchmem ./internal/types
	$(GO) test -run='^$$' -bench='BenchmarkEventHeapPushPop|BenchmarkHeapChurn' -benchmem ./internal/sim
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/arbiter ./internal/stats
