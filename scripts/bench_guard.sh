#!/usr/bin/env sh
# bench_guard.sh — fail when a guarded hot-path benchmark regresses more
# than 25% against its baseline: its value in the newest committed
# BENCH_*.json snapshot that records it.
#
# Guarded: BenchmarkResolveSteady (the memory-system fixed point),
# BenchmarkEngineTick (simulation dispatch) and BenchmarkNodeStepClean (the
# clean node tick) — the numbers every experiment cell multiplies by
# millions of ticks — plus BenchmarkFleetTick (fleet goodput composition)
# and BenchmarkFleetBuild (fleet placement, one sub-benchmark per policy),
# the O(machines) outer loops of the fleet study, plus the session server's
# BenchmarkSessionAdvance and BenchmarkMiddlewareOverhead (the kelpd
# request hot path). The fresh measurement is the minimum of -count runs;
# the gate is cmd/benchguard, which needs no installs. benchstat, when
# already on PATH, additionally prints its statistical comparison (report
# only — the gate stays deterministic).
#
# Usage:
#   scripts/bench_guard.sh            # layer every BENCH_*.json, oldest first
#   BENCH_BASE=BENCH_x.json scripts/bench_guard.sh   # one snapshot only
set -eu

cd "$(dirname "$0")/.."

BASES=${BENCH_BASE:-$(ls BENCH_*.json 2>/dev/null | sort || true)}
if [ -z "$BASES" ]; then
	echo "bench_guard.sh: no BENCH_*.json baseline committed; nothing to guard" >&2
	exit 0
fi
BASE_FLAGS=
for b in $BASES; do
	BASE_FLAGS="$BASE_FLAGS -baseline $b"
done
echo "baselines:" $BASES

RAW=$(mktemp)
OLD=$(mktemp)
trap 'rm -f "$RAW" "$OLD"' EXIT

go test -run='^$' -bench='^BenchmarkResolveSteady$' -count=5 ./internal/memsys | tee "$RAW"
go test -run='^$' -bench='^BenchmarkEngineTick$' -count=5 ./internal/sim | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkNodeStepClean$' -count=5 ./internal/node | tee -a "$RAW"
go test -run='^$' -bench='^(BenchmarkFleetTick|BenchmarkFleetBuild)$' -count=5 ./internal/fleet | tee -a "$RAW"
go test -run='^$' -bench='^(BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead)$' -count=5 ./internal/httpd | tee -a "$RAW"

if command -v benchstat >/dev/null 2>&1; then
	go run ./cmd/benchguard $BASE_FLAGS -emit-baseline "$OLD"
	benchstat "$OLD" "$RAW" || true
fi

go run ./cmd/benchguard $BASE_FLAGS -bench "$RAW"
