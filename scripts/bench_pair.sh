#!/usr/bin/env bash
# bench_pair.sh — compare the repository benchmark (perfbench) between a
# parent commit and the current checkout, on this host, in alternating
# pairs.
#
# Absolute numbers recorded on another host say little about a change; a
# pair of runs on the same host, one right after the other, does. For
# every seed (1 to 10), and within it every workload (sweep, fleet,
# serve), the script runs `perfbench/run.sh --trace 0` at perfbench's
# default run length once in a copy of PARENT and once in this checkout,
# alternating from seed to seed which goes first. Seeds are the outer loop
# so that a host that drifts over the ~20 minutes drifts on all three
# workloads alike. Then it prints, per workload and end-to-end metric:
#
#   - the median of each side over the ten seeds;
#   - the change of the median;
#   - how many pairs improved, in the metric's direction from
#     BENCHMARK.json;
#   - the parent's interquartile range (IQR) over the seeds;
#   - a verdict, the first of these that holds:
#       regress     the head median is worse than the parent median by
#                   more than the metric's bound in BENCHMARK.json (a
#                   share of the parent median);
#       unresolved  either side's IQR is wider than the bound, so the
#                   runs spread too widely to tell, unless every head run
#                   is better than every parent run (setup_s is exempt,
#                   as in perfbench/README.md);
#       gain        at least 9 of 10 pairs improved and the medians
#                   differ by more than the parent's IQR;
#       loss        the same in the other direction, within the bound;
#       neutral     none of these.
#
# The copy of PARENT is `git archive` output under
# .bench_build/pair/<commit>/, so it leaves no state in the repository's
# git directory, and its build cache survives for the next comparison
# against the same commit. Copies of other commits are deleted first, so
# at most one copy (about 120 MiB with its build cache) is kept. perfbench
# itself is run as is. Every run must
# report "correct": true, or the script stops and keeps the JSON lines of
# the runs so far in the directory it names.
#
# Usage (from anywhere in the repository):
#   scripts/bench_pair.sh PARENT
#
# PARENT is any commit name git accepts.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench_pair.sh PARENT" >&2
	exit 2
fi
commit=$(git rev-parse --verify "$1^{commit}")
seeds="1 2 3 4 5 6 7 8 9 10"

pair_root="$root/.bench_build/pair"
parent_dir="$pair_root/$commit"
for d in "$pair_root"/*/; do
	if [ -d "$d" ] && [ "${d%/}" != "$parent_dir" ]; then
		rm -rf "$d"
	fi
done
if [ ! -f "$parent_dir/perfbench/run.sh" ]; then
	rm -rf "$parent_dir"
	mkdir -p "$parent_dir"
	git archive "$commit" | tar -x -C "$parent_dir"
fi

res=$(mktemp -d)

# run DIR WORKLOAD SEED prints the run's final JSON line.
run() {
	local line
	if ! line=$(cd "$1" && bash perfbench/run.sh --workload "$2" --seed "$3" --trace 0 | tail -n 1); then
		echo "bench_pair.sh: $2 seed $3 failed in $1; results so far in $res" >&2
		exit 1
	fi
	case $line in
	*'"correct":true'*) printf '%s\n' "$line" ;;
	*)
		echo "bench_pair.sh: $2 seed $3 in $1 did not report correct: $line; results so far in $res" >&2
		exit 1
		;;
	esac
}

echo "parent $commit, head: this checkout ($(git rev-parse --short HEAD) plus any uncommitted changes)"
echo "host: $(nproc) CPUs; seeds: $seeds"
workloads="sweep fleet serve"
for w in $workloads; do
	: >"$res/$w.parent"
	: >"$res/$w.head"
done
i=0
for s in $seeds; do
	for w in $workloads; do
		if [ $((i % 2)) -eq 0 ]; then
			run "$parent_dir" "$w" "$s" >>"$res/$w.parent"
			run "$root" "$w" "$s" >>"$res/$w.head"
		else
			run "$root" "$w" "$s" >>"$res/$w.head"
			run "$parent_dir" "$w" "$s" >>"$res/$w.parent"
		fi
	done
	i=$((i + 1))
done
for w in $workloads; do
	echo
	echo "== $w"
	awk -f - "$root/BENCHMARK.json" "$res/$w.parent" "$res/$w.head" <<'EOF'
# Metric directions and bounds come from BENCHMARK.json, one metric per
# line.
FNR == 1 { file++ }
file == 1 {
	if (match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH)
		sub(/^"name": *"/, "", name)
		sub(/"$/, "", name)
		better[name] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
		if (match($0, /"bound": *[0-9.eE+-]+/)) {
			b = substr($0, RSTART, RLENGTH)
			sub(/^"bound": */, "", b)
			bound[name] = b + 0
		}
	}
	next
}
# Each result line is {..."metrics":{"name":{"value":V,"unit":"u"},...}}.
{
	side = (file == 2) ? "p" : "h"
	n[side]++
	line = $0
	while (match(line, /"[A-Za-z0-9_.]+":[{]"value":[-+0-9.eE]+/)) {
		pair = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		name = pair
		sub(/^"/, "", name)
		sub(/".*$/, "", name)
		v = pair
		sub(/^.*"value":/, "", v)
		if (!(name in seen)) {
			seen[name] = 1
			order[++metrics] = name
		}
		val[side, name, n[side]] = v + 0
	}
}
# sorted copies the k values of side and name into s[1..k], ascending.
function sorted(side, name, k,    i, j, t) {
	for (i = 1; i <= k; i++) {
		s[i] = val[side, name, i]
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) {
			t = s[j]; s[j] = s[j - 1]; s[j - 1] = t
		}
	}
}
# quantile returns the q-quantile of s[1..k], interpolating linearly.
function quantile(k, q,    pos, lo) {
	pos = 1 + (k - 1) * q
	lo = int(pos)
	if (lo >= k) return s[k]
	return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
END {
	k = (n["p"] < n["h"]) ? n["p"] : n["h"]
	printf "%-40s %12s %12s %8s %8s %12s  %s\n", "metric", "parent", "head", "change", "improved", "parent_iqr", "verdict"
	for (m = 1; m <= metrics; m++) {
		name = order[m]
		dir = (name in better) ? better[name] : "lower"
		up = down = 0
		for (i = 1; i <= k; i++) {
			p = val["p", name, i]; h = val["h", name, i]
			if (h != p && (h < p) == (dir == "lower")) up++
			else if (h != p) down++
		}
		sorted("p", name, k)
		pm = quantile(k, 0.5)
		plo = s[1]; phi = s[k]
		iqr = quantile(k, 0.75) - quantile(k, 0.25)
		sorted("h", name, k)
		hm = quantile(k, 0.5)
		hlo = s[1]; hhi = s[k]
		hiqr = quantile(k, 0.75) - quantile(k, 0.25)
		change = (pm != 0) ? sprintf("%+.1f%%", 100 * (hm - pm) / pm) : "-"
		gap = (hm > pm) ? hm - pm : pm - hm
		worse = (dir == "lower") ? hm - pm : pm - hm
		spread = (iqr > hiqr) ? iqr : hiqr
		apart = (dir == "lower") ? hhi < plo : hlo > phi
		verdict = "neutral"
		if (name in bound && worse > bound[name] * pm) verdict = "regress"
		else if (name in bound && name != "setup_s" && spread > bound[name] * pm && !apart) verdict = "unresolved"
		else if (k >= 10 && gap > iqr && 10 * up >= 9 * k) verdict = "gain"
		else if (k >= 10 && gap > iqr && 10 * down >= 9 * k) verdict = "loss"
		printf "%-40s %12.5g %12.5g %8s %5d/%-2d %12.5g  %s\n", name " (" dir ")", pm, hm, change, up, k, iqr, verdict
	}
}
EOF
done
rm -rf "$res"
