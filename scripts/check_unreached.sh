#!/usr/bin/env bash
# check_unreached.sh — fail when a non-test function is linked into no
# binary, unless scripts/unreached_allow.txt names it with a reason.
#
# Code no binary links cannot change what any binary does, yet it still has
# to follow every interface and type change. The linker already knows what
# is reachable, so this check asks it:
#
#   1. build every main package of every module in the repo (the root
#      module and perfbench) with -gcflags=all=-l, so that no call is
#      inlined away and every reachable function keeps its own symbol;
#   2. take the union of the kelp function symbols in `go tool nm`;
#   3. list every top-level func declaration of the non-test, non-main Go
#      files (gofmt puts each at column 0, so grep finds them);
#   4. report each declaration with no symbol, unless an allow-list entry
#      matches it.
#
# Names are written as the import path, a dot, then the function or
# Type.Method: kelp/internal/sim.NewEngine, kelp/internal/node.Node.StepN
# (a pointer receiver is written without its star). Symbols are normalized
# to the same form: the name is everything after nm's second field (generic
# instantiations hold spaces), bracketed type arguments are stripped by
# matching brackets, (*T) becomes T, and init.N becomes init.
#
# Each allow-list line is `<glob> <reason>`: a bash glob on the name, then
# why the function stays although no binary links it. '#' starts a comment.
# An entry with no reason, or one that matches no unreached function, is an
# error too, so the list cannot go stale.
#
# Usage: scripts/check_unreached.sh   # exits non-zero listing every miss
set -u
set -o pipefail
cd "$(dirname "$0")/.."

allow=scripts/unreached_allow.txt
module=$(sed -n 's/^module //p' go.mod)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# --- 1. build every main package --------------------------------------------
while IFS= read -r mod; do
	dir=$(dirname "$mod")
	mains=$(cd "$dir" && go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...) || exit 1
	[ -n "$mains" ] || continue
	mkdir -p "$tmp/bin/$dir"
	# shellcheck disable=SC2086 # one directory per word
	(cd "$dir" && go build -gcflags=all=-l -o "$tmp/bin/$dir/" $mains) || exit 1
done < <(find . -name go.mod -not -path './.*' | sort)

# --- 2. linked symbols ------------------------------------------------------
find "$tmp/bin" -type f | while IFS= read -r bin; do
	go tool nm "$bin" || exit 1
done | awk -v mod="$module" '
{
	name = $0
	sub(/^ *([0-9a-f]+ +)?[A-Za-z] +/, "", name)
	if (index(name, mod "/") != 1 && index(name, mod ".") != 1) next
	out = ""; depth = 0
	for (i = 1; i <= length(name); i++) {
		c = substr(name, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0) out = out c
	}
	gsub(/\(\*/, "", out); gsub(/\)/, "", out)
	sub(/\.init\.[0-9]+$/, ".init", out)
	print out
}' | sort -u >"$tmp/linked" || exit 1

# --- 3. declared functions --------------------------------------------------
# Prints "<name> <file>:<line>" for every top-level func outside package main.
find . -name '*.go' -not -name '*_test.go' -not -path './.*' | sort |
	xargs awk -v mod="$module" '
FNR == 1 {
	dir = FILENAME; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir)
	pkg = dir == "" ? mod : mod "/" dir
	skip = 0
}
/^package main$/ { skip = 1 }
skip || !/^func / { next }
{
	line = substr($0, 6); recv = ""
	if (substr(line, 1, 1) == "(") {
		depth = 0
		for (i = 1; i <= length(line); i++) {
			c = substr(line, i, 1)
			if (c == "(") depth++
			else if (c == ")" && --depth == 0) break
		}
		recv = substr(line, 2, i - 2)
		line = substr(line, i + 1); sub(/^ +/, "", line)
		sub(/\[.*$/, "", recv)
		n = split(recv, part, /[ *]+/)
		recv = part[n] "."
	}
	match(line, /^[A-Za-z0-9_]+/)
	print pkg "." recv substr(line, 1, RLENGTH), substr(FILENAME, 3) ":" FNR
}' | sort -u >"$tmp/declared" || exit 1

# --- 4. compare against the allow-list --------------------------------------
globs=() used=()
while IFS= read -r entry; do
	entry=${entry%%#*}
	read -r glob reason <<<"$entry"
	[ -n "${glob:-}" ] || continue
	if [ -z "${reason:-}" ]; then
		echo "check_unreached: $allow: entry '$glob' gives no reason"
		fail=1
	fi
	globs+=("$glob")
	used+=(0)
done <"$allow"

awk 'NR == FNR { linked[$0] = 1; next } !($1 in linked)' \
	"$tmp/linked" "$tmp/declared" >"$tmp/unreached"

set -f # globs are patterns for [[ == ]], never file names
while read -r name where; do
	allowed=0
	for i in "${!globs[@]}"; do
		# shellcheck disable=SC2053 # the right side is a glob on purpose
		if [[ $name == ${globs[$i]} ]]; then
			allowed=1
			used[i]=1
		fi
	done
	if [ "$allowed" -eq 0 ]; then
		echo "check_unreached: $where: $name is linked into no binary"
		fail=1
	fi
done <"$tmp/unreached"

for i in "${!globs[@]}"; do
	if [ "${used[$i]}" -eq 0 ]; then
		echo "check_unreached: $allow: entry '${globs[$i]}' matches no unreached function"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_unreached: OK ($(wc -l <"$tmp/declared") functions, $(wc -l <"$tmp/linked") linked symbols)"
