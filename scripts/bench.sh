#!/usr/bin/env sh
# bench.sh — run the performance suite and emit a BENCH_<date>.json snapshot.
#
# Usage:
#   scripts/bench.sh              # micro + headline figure benchmarks
#   scripts/bench.sh -quick       # everything at -benchtime=1x (CI smoke)
#   scripts/bench.sh -micro       # hot-path microbenchmarks only
#   BENCH_MATCH=regexp scripts/bench.sh -micro   # only the matching ones
#   scripts/bench.sh -f           # overwrite an existing same-day snapshot
#   BENCH_OUT=out.json scripts/bench.sh
#
# The snapshot records ns/op, B/op, allocs/op and every custom metric
# (the BenchmarkFigure* headline numbers) per benchmark, plus the host's
# nproc and the GOMAXPROCS the benchmarks ran with, so successive PRs have
# a perf trajectory to compare against. Reading and updating the
# snapshot is documented in docs/PERFORMANCE.md.
set -eu

cd "$(dirname "$0")/.."

MODE=full
FORCE=0
for arg in "$@"; do
	case "$arg" in
	-quick) MODE=quick ;;
	-micro) MODE=micro ;;
	-f) FORCE=1 ;;
	*)
		echo "bench.sh: unknown argument $arg" >&2
		exit 2
		;;
	esac
done

OUT=${BENCH_OUT:-BENCH_$(date +%F).json}
# A same-day snapshot is usually a committed baseline; refuse to clobber it
# silently — a half-finished rerun would destroy the numbers later PRs
# compare against.
if [ -e "$OUT" ] && [ "$FORCE" -ne 1 ]; then
	echo "bench.sh: $OUT already exists; rerun with -f to overwrite it" >&2
	exit 1
fi
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# Hot-path microbenchmarks: the allocation-free simulation step in each of
# its tiers (full, horizon, and offer-compare; the prefix BenchmarkNodeStep
# already matches BenchmarkNodeStepReoffer, which is named to pin it), a
# steady node advanced through horizon runs (ns per simulated tick), the
# zero-cost disabled instrumentation path, the fleet composition tick
# (per-job cluster replay over pre-measured shapes; placement runs before
# the timer), fleet placement per policy at the study's 20000-machine
# config, and the session server's advance round trip and middleware tax.
MICRO_PKGS="./internal/memsys ./internal/node ./internal/sim ./internal/events ./internal/fleet ./internal/httpd"
# BENCH_MATCH narrows the suite, e.g. to baseline newly guarded benchmarks
# without re-recording the others (cmd/benchguard layers snapshots).
MICRO_BENCH=${BENCH_MATCH:-'BenchmarkResolve|BenchmarkNodeStep|BenchmarkNodeStepReoffer|BenchmarkNodeRunHorizon|BenchmarkEngineTick|BenchmarkEmit|BenchmarkFleetTick|BenchmarkFleetBuild|BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead'}

case "$MODE" in
quick)
	go test -run='^$' -bench="$MICRO_BENCH" -benchtime=1x -benchmem $MICRO_PKGS | tee "$RAW"
	;;
micro)
	go test -run='^$' -bench="$MICRO_BENCH" -benchmem $MICRO_PKGS | tee "$RAW"
	;;
full)
	go test -run='^$' -bench="$MICRO_BENCH" -benchmem $MICRO_PKGS | tee "$RAW"
	# Headline figure benchmarks: one full run each — the custom metrics
	# (figure headline numbers) are what the snapshot tracks.
	go test -run='^$' -bench='BenchmarkFigure|BenchmarkTable' -benchtime=1x -benchmem . | tee -a "$RAW"
	;;
esac

# Render the raw `go test -bench` output as JSON. Benchmark lines are
#   Name-N  <iters>  <value> <unit>  <value> <unit> ...
# and `pkg:` lines scope the names.
# GOMAXPROCS defaults to the CPUs the process may use, which nproc reports.
NPROC=$(nproc)
awk -v date="$(date +%F)" -v goversion="$(go version | cut -d' ' -f3)" -v mode="$MODE" \
	-v nproc="$NPROC" -v gomaxprocs="${GOMAXPROCS:-$NPROC}" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"mode\": \"%s\",\n  \"nproc\": %s,\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [", date, goversion, mode, nproc, gomaxprocs }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (n++) printf ","
	printf "\n    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"metrics\": {", pkg, name, $2
	m = 0
	for (i = 3; i < NF; i += 2) {
		if (m++) printf ", "
		printf "\"%s\": %s", $(i + 1), $i
	}
	printf "}}"
}
END { printf "\n  ]\n}\n" }
' "$RAW" >"$OUT"

echo "snapshot: $OUT"
