#!/usr/bin/env bash
# check_test_names.sh — fail when a name filter of a `go test` command in
# .github/workflows/ci.yml or scripts/bench.sh, or of a guarded package in
# scripts/bench_guard.sh, names nothing.
#
# A -run, -fuzz or -bench pattern that matches no function runs nothing and
# passes, so a test renamed or deleted out from under a CI step would
# silently leave it. Every alternative of each pattern (split on '|') must
# match a Test, Fuzz, Benchmark or Example function declared in the _test.go
# files of the packages that command runs. Alternatives are matched as go
# test matches the top-level name: as an unanchored regular expression, or
# a whole name when the pattern is written ^...$ or ^(...|...)$; only the
# part before a '/' (a subtest) is checked. The pattern '^$' (run nothing)
# is skipped. In scripts/bench.sh, $MICRO_BENCH and $MICRO_PKGS stand for
# their default values; in scripts/bench_guard.sh, each line of the
# guarded list (a package and its -bench filter) is checked like a command.
#
# Usage: scripts/check_test_names.sh   # exits non-zero listing every miss
set -u
set -f # patterns hold regexp characters; never glob them
cd "$(dirname "$0")/.."

fail=0

# names prints the test function names declared in the given packages
# (./dir, . or ./...), one per line.
names() {
	local pkg files=()
	for pkg in "$@"; do
		case "$pkg" in
		./...) mapfile -t -O "${#files[@]}" files < <(find . -name '*_test.go' -not -path './.*') ;;
		.) files+=(./*_test.go) ;;
		*) files+=("$pkg"/*_test.go) ;;
		esac
	done
	set +f
	# Expand the globs above now that globbing is back on.
	# shellcheck disable=SC2068
	grep -ohE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' ${files[@]} 2>/dev/null | sed 's/^func //'
	set -f
}

# check reports every alternative of every name filter on one command line
# that matches no function of the command's packages.
check() {
	local where=$1 line=$2 pkgs flag value anchor core alt re all
	pkgs=$(printf '%s\n' $line | grep -E '^\.(/|$)' | tr '\n' ' ')
	[ -n "$pkgs" ] || return 0
	all=$(names $pkgs)
	while IFS= read -r flag; do
		value=${flag#-*[= ]}
		value=${value#[\'\"]}
		value=${value%[\'\"]}
		[ "$value" = '^$' ] && continue
		anchor=0
		core=$value
		if [[ $value =~ ^\^\((.*)\)\$$ || $value =~ ^\^(.*)\$$ ]]; then
			anchor=1
			core=${BASH_REMATCH[1]}
		fi
		IFS='|' read -ra alts <<<"$core"
		for alt in "${alts[@]}"; do
			alt=${alt%%/*}
			[ -n "$alt" ] || continue
			re=$alt
			[ "$anchor" -eq 1 ] && re="^($alt)\$"
			if ! grep -qE "$re" <<<"$all"; then
				echo "check_test_names: $where: ${flag%%[= ]*} alternative '$alt' matches no function in $pkgs"
				fail=1
			fi
		done
	done < <(grep -oE -- "-(run|fuzz|bench)[= ]('[^']*'|\"[^\"]*\"|[^ '\"]+)" <<<"$line")
}

micro_bench=$(sed -n "s/^MICRO_BENCH=\${BENCH_MATCH:-'\(.*\)'}\$/\1/p" scripts/bench.sh)
micro_pkgs=$(sed -n 's/^MICRO_PKGS="\(.*\)"$/\1/p' scripts/bench.sh)
if [ -z "$micro_bench" ] || [ -z "$micro_pkgs" ]; then
	echo "check_test_names: scripts/bench.sh: cannot read the MICRO_BENCH or MICRO_PKGS default"
	fail=1
fi

# scan checks every line of a file that matches PATTERN (default: go test
# command lines), outside comments, with bench.sh's variables replaced by
# their defaults.
scan() {
	local file=$1 pattern=${2:-'go test '} n line
	while IFS=: read -r n line; do
		case "${line#"${line%%[! ]*}"}" in
		\#*) continue ;;
		esac
		line=${line//'"$MICRO_BENCH"'/"'$micro_bench'"}
		line=${line//'$MICRO_PKGS'/$micro_pkgs}
		check "$file:$n" "$line"
	done < <(grep -nE "$pattern" "$file")
}

scan .github/workflows/ci.yml
scan scripts/bench_guard.sh '^\./[^ ]+ -bench='
scan scripts/bench.sh

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_test_names: OK"
