#!/bin/sh
# bench_guard.sh [ceiling-file] [spans]
#
# Allocation-regression guard for the traffic hot path: runs BenchmarkFigure5
# (the paper's end-to-end load/latency sweep point) with telemetry disabled and
# fails if allocs/op exceeds the committed ceiling in bench_ceiling.txt. The
# explicit workers=1 path (BenchmarkFigure5Workers/workers_1) is held to the
# same ceiling: parallel support must not cost the serial path anything.
#
# The ceiling is the contract behind the telemetry subsystem's "zero overhead
# when disabled" claim: probe hooks in the flit path must stay behind nil
# checks that the benchmark proves allocate nothing. Lower the ceiling when an
# optimization lands; raising it needs a justification in the PR.
#
# The ceiling bounds the aggregate; TestSteadyStateAllocBudget (internal/core)
# bounds the rate: every golden topology, serial, sharded and with metrics on,
# must allocate at most 0.05 objects per retired flit once warm. A leak small
# enough to hide under the ceiling's headroom still fails here.
#
# With a second argument of "spans", the guard additionally runs
# BenchmarkFigure5Spans (span recording at full sampling) and reports its
# numbers for EXPERIMENTS.md. That run is informational only — the ceiling is
# never enforced against the instrumented path.
set -eu

ceiling_file=${1:-bench_ceiling.txt}
with_spans=${2:-}
go=${GO:-go}

ceiling=$(awk '!/^[ \t]*(#|$)/ { print $1; exit }' "$ceiling_file")
if [ -z "$ceiling" ]; then
    echo "bench-guard: no ceiling found in $ceiling_file" >&2
    exit 2
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$go" test -run='^$' -bench='BenchmarkFigure5$' -benchtime=1x -benchmem . | tee "$out"

allocs=$(awk '/^BenchmarkFigure5/ { for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$out")
if [ -z "$allocs" ]; then
    echo "bench-guard: BenchmarkFigure5 produced no allocs/op line" >&2
    exit 2
fi

if [ "$allocs" -gt "$ceiling" ]; then
    echo "bench-guard: FAIL — BenchmarkFigure5 allocated $allocs/op, ceiling is $ceiling/op (bench_ceiling.txt)" >&2
    exit 1
fi
echo "bench-guard: OK — $allocs allocs/op <= ceiling $ceiling"

# The explicit -workers 1 path (simulation.workers set to 1) must be the same
# serial path: parallel support may not cost the default configuration
# anything, so the same ceiling applies.
"$go" test -run='^$' -bench='BenchmarkFigure5Workers/workers_1$' -benchtime=1x -benchmem . | tee "$out"

w1_allocs=$(awk '/^BenchmarkFigure5Workers\/workers_1/ { for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$out")
if [ -z "$w1_allocs" ]; then
    echo "bench-guard: BenchmarkFigure5Workers/workers_1 produced no allocs/op line" >&2
    exit 2
fi

if [ "$w1_allocs" -gt "$ceiling" ]; then
    echo "bench-guard: FAIL — workers=1 path allocated $w1_allocs/op, ceiling is $ceiling/op (bench_ceiling.txt)" >&2
    exit 1
fi
echo "bench-guard: OK — workers=1 path $w1_allocs allocs/op <= ceiling $ceiling"

"$go" test -count=1 -run='^TestSteadyStateAllocBudget$' ./internal/core
echo "bench-guard: OK — steady-state allocation budget holds on every golden case"

# Sharded tracing cost, informational only: full-sampling flit tracing at
# workers=2 exercises per-shard lane recording plus the end-of-run stamp
# merge. The ceiling is never enforced against instrumented paths — it guards
# the tracing-DISABLED hot path above.
"$go" test -run='^$' -bench='BenchmarkFigure5TraceParallel$' -benchtime=1x -benchmem . | tee "$out"
trace_allocs=$(awk '/^BenchmarkFigure5TraceParallel/ { for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$out")
echo "bench-guard: traced workers=2 path allocated ${trace_allocs:-?} allocs/op (informational, not enforced)"

if [ "$with_spans" = "spans" ]; then
    "$go" test -run='^$' -bench='BenchmarkFigure5Spans$' -benchtime=1x -benchmem . | tee "$out"
    spans_allocs=$(awk '/^BenchmarkFigure5Spans/ { for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$out")
    echo "bench-guard: spans-enabled path allocated ${spans_allocs:-?} allocs/op (informational, not enforced)"
fi
