#!/usr/bin/env bash
# netloc.sh BASE [HEAD] — added, removed and net non-test Go lines
# between two revisions, from `git diff --numstat`, for the root module
# and the tools/lint module separately. HEAD defaults to the working
# tree; untracked files count only once `git add`ed. _test.go files and
# testdata/ trees are left out, and so is perfbench/, which is its own
# module.
#
# Usage: scripts/netloc.sh BASE [HEAD]     (or: make netloc BASE=...)
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:?usage: netloc.sh BASE [HEAD]}
revs=("$base")
if [ $# -ge 2 ]; then
    revs+=("$2")
fi

git diff --numstat --no-renames "${revs[@]}" -- '*.go' | awk '
    $1 == "-" || $3 ~ /_test\.go$/ || $3 ~ /(^|\/)testdata\// || $3 ~ /^perfbench\// { next }
    { m = ($3 ~ /^tools\/lint\//) ? "tools/lint" : "root"; add[m] += $1; del[m] += $2 }
    END {
        printf "%-12s %8s %8s %8s\n", "module", "added", "removed", "net"
        n = split("root tools/lint", mods, " ")
        for (i = 1; i <= n; i++) {
            m = mods[i]
            printf "%-12s %8d %8d %+8d\n", m, add[m], del[m], add[m] - del[m]
        }
    }'
