#!/usr/bin/env bash
# Documentation hygiene checks, run by the CI docs job:
#
#   1. every internal/ package carries a package doc comment
#      ("// Package <name> ..." in some file of the package);
#   2. every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md
#      and docs/*.md resolves to a file or directory in the repo.
#   3. the advertised runnable examples exist and carry an `// Output:`
#      marker, so `go test` executes them and godoc renders them (the test
#      job actually runs them; this keeps them from being silently
#      deleted or demoted to non-verified examples).
#   4. every cmd/<name> and internal/<name> path named in the files of
#      check 2 exists, so a deleted or renamed command or package leaves
#      no stale reference.
#   5. every section reference written as a link plus a section number,
#      `[X.md](X.md) §N`, in the files of check 2 names a section that
#      exists: the linked file has an `## N.` heading.
#
# Exits non-zero listing every violation (it does not stop at the first).
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. package doc comments -------------------------------------------------
for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -q "^// Package $pkg " "$dir"*.go 2>/dev/null; then
        echo "check_docs: internal/$pkg has no '// Package $pkg ...' doc comment"
        fail=1
    fi
done

# --- 2. relative markdown links ----------------------------------------------
# Collect inline [text](target) links, drop absolute URLs and pure anchors,
# strip any #fragment, and test the target relative to the linking file.
# NOTE: the while loop reads from process substitution, not a pipe — a pipe
# would run the loop in a subshell and lose the fail flag.
docs=$(ls README.md DESIGN.md EXPERIMENTS.md docs/*.md 2>/dev/null)
for doc in $docs; do
    while IFS= read -r target; do
        case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$(dirname "$doc")/$path" ]; then
            echo "check_docs: $doc links to missing file: $target"
            fail=1
        fi
    done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# --- 3. runnable examples ----------------------------------------------------
# pkg-dir:ExampleName pairs that the docs reference as runnable sessions.
examples="internal/fleet:ExampleRun internal/pool:ExampleCollect internal/httpd:ExampleServer_sessions"
for pair in $examples; do
    dir=${pair%%:*}
    name=${pair##*:}
    if ! grep -q "^func $name(" "$dir"/*_test.go 2>/dev/null; then
        echo "check_docs: $dir is missing runnable example func $name"
        fail=1
        continue
    fi
    if ! grep -rq "// Output:" "$dir"/example_test.go 2>/dev/null; then
        echo "check_docs: $dir/example_test.go has no '// Output:' marker ($name is not a verified example)"
        fail=1
    fi
done

# --- 4. cmd/<name> and internal/<name> references ---------------------------
for doc in $docs; do
    while IFS= read -r dir; do
        if [ ! -d "$dir" ]; then
            echo "check_docs: $doc names missing ${dir%%/*} path: $dir"
            fail=1
        fi
    done < <(grep -oE '(cmd|internal)/[A-Za-z0-9_-]+' "$doc" | sort -u)
done

# --- 5. [X.md](X.md) §N section references ----------------------------------
# The doc is joined into one line first, so a reference wrapped between the
# link and its section number is still checked.
for doc in $docs; do
    while IFS= read -r ref; do
        target=$(printf '%s' "$ref" | sed 's/.*](\([^)#]*\)).*/\1/')
        num=${ref##*§}
        file="$(dirname "$doc")/$target"
        [ -f "$file" ] || continue # a missing file is check 2's report
        if ! grep -q "^## $num\. " "$file"; then
            echo "check_docs: $doc refers to $target §$num, which has no '## $num.' heading"
            fail=1
        fi
    done < <(tr '\n' ' ' <"$doc" | grep -oE '\[[^]]*\]\([^)]*\.md\) §[0-9]+')
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_docs: OK"
