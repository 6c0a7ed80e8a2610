#!/usr/bin/env bash
# Builds the benchmark and jsonskid from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload large --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOWORK=off GOTOOLCHAIN=local
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/bin" "$out/tmp"
# The build output goes to stderr: standard output ends with the result.
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/jsonskid" jsonski/cmd/jsonskid) >&2
exec "$out/bin/perfbench" -root "$root" -work "$out/work" -jsonskid "$out/bin/jsonskid" "$@"
