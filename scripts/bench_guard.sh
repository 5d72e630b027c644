#!/usr/bin/env bash
# bench_guard.sh — fail when a guarded hot-path benchmark got more than 25%
# slower, or allocates more, than the same benchmark built from a base
# commit and run on this host in the same minutes.
#
# Guarded (the list below): BenchmarkResolveSteady (the memory-system fixed
# point), BenchmarkEngineTick (simulation dispatch) and
# BenchmarkNodeStepClean (the clean node tick), the numbers every
# experiment cell multiplies by millions of ticks; BenchmarkFleetTick
# (fleet goodput composition) and BenchmarkFleetBuild (fleet placement,
# one sub-benchmark per policy), the O(machines) outer loops of the fleet
# study; and the session server's BenchmarkSessionAdvance and
# BenchmarkMiddlewareOverhead (the kelpd request hot path).
#
# BASE is unpacked with `git archive` under .bench_build/guard/<commit>/,
# as scripts/bench_pair.sh does, so no state is left in the repository's
# git directory. Each guarded package's test binary is built there and in
# this checkout (uncommitted changes included). The two sides then run
# interleaved, ten rounds of one 0.5 s run each, alternating which side
# goes first, so a host that drifts drifts on both; ten short runs give
# each side's minimum more chances to land in a quiet moment of a shared
# host than five long ones. The gate is cmd/benchguard,
# which needs no installs: per benchmark, the ratio of the checkout's
# minimum ns/op to the base's must not exceed 1.25, and the checkout's
# allocs/op must not exceed the base's. Each benchmark is also printed
# against its value in the newest committed BENCH_*.json that records it,
# as a report line only: those were recorded on other hosts. benchstat,
# when already on PATH, additionally prints its comparison of the two
# sides (report only).
#
# A benchmark whose body the change alters is compared with the base's
# body: build the base with the new body by hand to compare like with
# like.
#
# Usage (from anywhere in the repository):
#   scripts/bench_guard.sh [BASE]
#
# BASE is any commit name git accepts; it defaults to the merge-base of
# HEAD and origin/main, or HEAD when origin/main is unknown.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD

# The guarded set: one package and its -bench filter per line.
guarded='
./internal/memsys -bench=^BenchmarkResolveSteady$
./internal/sim -bench=^BenchmarkEngineTick$
./internal/node -bench=^BenchmarkNodeStepClean$
./internal/fleet -bench=^(BenchmarkFleetTick|BenchmarkFleetBuild)$
./internal/httpd -bench=^(BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead)$
'
rounds=10

if [ $# -gt 1 ]; then
	echo "usage: scripts/bench_guard.sh [BASE]" >&2
	exit 2
fi
base=${1:-$(git merge-base HEAD origin/main 2>/dev/null || echo HEAD)}
commit=$(git rev-parse --verify "$base^{commit}")

guard_root="$root/.bench_build/guard"
base_dir="$guard_root/$commit"
for d in "$guard_root"/*/; do
	if [ -d "$d" ] && [ "${d%/}" != "$base_dir" ]; then
		rm -rf "$d"
	fi
done
if [ ! -f "$base_dir/go.mod" ]; then
	rm -rf "$base_dir"
	mkdir -p "$base_dir"
	git archive "$commit" | tar -x -C "$base_dir"
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "base $commit, head: this checkout ($(git rev-parse --short HEAD) plus any uncommitted changes)"
echo "host: $(nproc) CPUs; $rounds interleaved rounds"

# Build both sides' test binaries: $out/<side>-<package>.test.
while read -r pkg _; do
	[ -n "$pkg" ] || continue
	for side in base head; do
		dir=$root
		[ "$side" = base ] && dir=$base_dir
		(cd "$dir" && go test -c -o "$out/$side-${pkg##*/}.test" "$pkg")
	done
done <<<"$guarded"

# bench SIDE PKG FILTER runs one round of a package's guarded benchmarks
# from the package's directory, appending to $out/SIDE.txt.
bench() {
	local dir=$root
	[ "$1" = base ] && dir=$base_dir
	(cd "$dir/$2" && "$out/$1-${2##*/}.test" -test.run='^$' -test.bench="$3" -test.benchmem -test.benchtime=500ms -test.count=1 -test.timeout=10m) |
		tee -a "$out/$1.txt"
}

: >"$out/base.txt"
: >"$out/head.txt"
for r in $(seq 1 "$rounds"); do
	echo "== round $r of $rounds"
	while read -r pkg filter; do
		[ -n "$pkg" ] || continue
		filter=${filter#-bench=}
		if [ $((r % 2)) -eq 1 ]; then
			bench base "$pkg" "$filter"
			bench head "$pkg" "$filter"
		else
			bench head "$pkg" "$filter"
			bench base "$pkg" "$filter"
		fi
	done <<<"$guarded"
done

if command -v benchstat >/dev/null 2>&1; then
	benchstat "$out/base.txt" "$out/head.txt" || true
fi

snaps=()
for b in $(ls BENCH_*.json 2>/dev/null | sort); do
	snaps+=(-baseline "$b")
done
go run ./cmd/benchguard -base "$out/base.txt" -bench "$out/head.txt" "${snaps[@]}"
