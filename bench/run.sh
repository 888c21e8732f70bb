#!/usr/bin/env bash
# run.sh — build fedbench from this checkout's source, then run it.
#
#   bench/run.sh -seed 1                    # every workload, untraced then traced
#   bench/run.sh --workload paper-seq --seed 1 --seconds 20 --trace 0
#   bench/run.sh -compare a.jsonl b.jsonl   # medians and verdicts against BENCHMARK.json
#
# The binary, the Go build cache and Go's own state files go to
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout. GOMAXPROCS is pinned to 2 so that runs on machines with
# more cores load the engine the same way.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/fedbench" ./fedbench)
cd "$root"
GOMAXPROCS=2 exec "$build/fedbench" "$@"
