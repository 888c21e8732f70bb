#!/usr/bin/env bash
# bench.sh — run the engine benchmarks and emit their numbers as
# BENCH_engine.json for tracking across commits.
#
# BenchmarkEngineRounds runs a full seeded engine run at batch sizes
# 1/4/8 and reports, per q: wall-clock ns/op, evaluation rounds,
# total federated rounds, and estimated payload bytes both ways
# (Server.Stats). BenchmarkEngineWire repeats the q=8 workload across
# wire formats (gob baseline, lossless binary v1 ± flate, quantized
# tiers), so the bytes_down/bytes_up reduction of the v1 codec is
# tracked per commit. BenchmarkRecorderOverhead runs the same workload
# at q=4 with telemetry off (nil recorder), with the Prometheus
# aggregator attached, and with a metrics+JSONL fan-out, so the
# telemetry tax stays visible next to the protocol numbers.
# BenchmarkPipelineDAG prices the graph executor's steady-state
# candidate evaluation (the ClientNode hot path) for the degenerate
# chain, a fully branched template graph, and the chain under 3-fold
# rolling-origin CV, so the DAG refactor's per-candidate cost is
# tracked next to the round protocol it feeds. BenchmarkTreeFits prices
# the shared tree core on tie-heavy columns at two engine shapes: the
# per-client random-forest importance fit of the feature-selection round
# and an XGB candidate fit. BenchmarkLinmodelFits prices the linear
# fits (Lasso cyclic and random, ElasticNetCV, Huber) at a chaos-rounds
# and a paper-seq client's n×p.
#
# All benchmarks run under -benchmem, so every JSON row also carries
# bytes_per_op and allocs_per_op — the numbers the perflint retrofit
# (hotalloc/bigcopy/prealloc/deferloop/iboxing) is accounted against.
#
# The JSON is one object with six lists:
#   {"engine_rounds": [...one object per q...],
#    "wire_formats": [...one object per wire format, all at q=8...],
#    "recorder_overhead": [...one object per recorder mode...],
#    "pipeline_dag": [...one object per graph shape...],
#    "tree_fits": [...one object per tree-fit shape...],
#    "linmodel_fits": [...one object per linear-fit shape...]}
#
# Usage:
#   scripts/bench.sh               # writes BENCH_engine.json in the repo root
#   BENCHTIME=5x scripts/bench.sh  # more samples per benchmark
#   scripts/bench.sh -gate         # regression gate: measure into a temp
#                                  # file and fail (exit 1, offending rows
#                                  # printed) when any section's ns_per_op
#                                  # or allocs_per_op regressed >15% vs the
#                                  # committed BENCH_engine.json
#   NS_TOL=0 scripts/bench.sh -gate    # gate allocs only (CI: wall-clock
#   ALLOC_TOL=0.15                     # is too noisy on shared runners)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
out="BENCH_engine.json"
gate=0
if [[ "${1:-}" == "-gate" ]]; then
    gate=1
    out="$(mktemp /tmp/bench_engine.XXXXXX.json)"
    trap 'rm -f "$out"' EXIT
fi

echo "==> go test -bench='EngineRounds|EngineWire|RecorderOverhead' -benchmem -benchtime=$benchtime ./internal/core/"
raw="$(go test -bench='EngineRounds|EngineWire|RecorderOverhead' -benchmem -benchtime="$benchtime" -run '^$' ./internal/core/)"
echo "$raw"

echo "==> go test -bench=PipelineDAG -benchmem -benchtime=$benchtime ./internal/pipeline/"
rawdag="$(go test -bench='PipelineDAG' -benchmem -benchtime="$benchtime" -run '^$' ./internal/pipeline/)"
echo "$rawdag"

echo "==> go test -bench=TreeFits -benchmem -benchtime=$benchtime ./internal/ensemble/"
rawtree="$(go test -bench='TreeFits' -benchmem -benchtime="$benchtime" -run '^$' ./internal/ensemble/)"
echo "$rawtree"

echo "==> go test -bench=LinmodelFits -benchmem -benchtime=$benchtime ./internal/linmodel/"
rawlin="$(go test -bench='LinmodelFits' -benchmem -benchtime="$benchtime" -run '^$' ./internal/linmodel/)"
echo "$rawlin"

printf '%s\n%s\n%s\n%s\n' "$raw" "$rawdag" "$rawtree" "$rawlin" | awk '
BEGIN { nr = 0; nw = 0; no = 0; nd = 0; nt = 0; nl = 0 }
/^BenchmarkEngineRounds\// {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])   # strip the -GOMAXPROCS suffix
    q = parts[2]
    nsop = ""; evalrounds = ""; rounds = ""; bytesdown = ""; bytesup = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      nsop = $i
        if ($(i+1) == "evalrounds") evalrounds = $i
        if ($(i+1) == "rounds")     rounds = $i
        if ($(i+1) == "bytesdown")  bytesdown = $i
        if ($(i+1) == "bytesup")    bytesup = $i
        if ($(i+1) == "B/op")       bop = $i
        if ($(i+1) == "allocs/op")  aop = $i
    }
    rows[nr++] = sprintf("    {\"q\": %s, \"ns_per_op\": %s, \"eval_rounds\": %s, \"rounds\": %s, \"bytes_down\": %s, \"bytes_up\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        q, nsop, evalrounds, rounds, bytesdown, bytesup, bop, aop)
}
/^BenchmarkEngineWire\// {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])   # strip the -GOMAXPROCS suffix
    wire = parts[2]
    nsop = ""; evalrounds = ""; rounds = ""; bytesdown = ""; bytesup = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      nsop = $i
        if ($(i+1) == "evalrounds") evalrounds = $i
        if ($(i+1) == "rounds")     rounds = $i
        if ($(i+1) == "bytesdown")  bytesdown = $i
        if ($(i+1) == "bytesup")    bytesup = $i
        if ($(i+1) == "B/op")       bop = $i
        if ($(i+1) == "allocs/op")  aop = $i
    }
    wrows[nw++] = sprintf("    {\"q\": 8, \"wire\": \"%s\", \"ns_per_op\": %s, \"eval_rounds\": %s, \"rounds\": %s, \"bytes_down\": %s, \"bytes_up\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        wire, nsop, evalrounds, rounds, bytesdown, bytesup, bop, aop)
}
/^BenchmarkRecorderOverhead\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])   # strip the -GOMAXPROCS suffix
    mode = parts[2]
    nsop = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     nsop = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    orows[no++] = sprintf("    {\"recorder\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", mode, nsop, bop, aop)
}
/^BenchmarkPipelineDAG\// {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])   # strip the -GOMAXPROCS suffix
    graph = parts[2]
    nsop = ""; folds = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     nsop = $i
        if ($(i+1) == "folds")     folds = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    drows[nd++] = sprintf("    {\"graph\": \"%s\", \"ns_per_op\": %s, \"folds\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        graph, nsop, folds, bop, aop)
}
# fitrow formats one BenchmarkTreeFits/BenchmarkLinmodelFits line,
# keyed by the shape after "shape=".
function fitrow(   parts, shape, nsop, bop, aop, i) {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])   # strip the -GOMAXPROCS suffix
    shape = parts[2]
    nsop = ""; bop = ""; aop = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     nsop = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    return sprintf("    {\"shape\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", shape, nsop, bop, aop)
}
/^BenchmarkTreeFits\// { trows[nt++] = fitrow() }
/^BenchmarkLinmodelFits\// { lrows[nl++] = fitrow() }
END {
    print "{"
    print "  \"engine_rounds\": ["
    for (i = 0; i < nr; i++) printf "%s%s\n", rows[i], (i < nr-1 ? "," : "")
    print "  ],"
    print "  \"wire_formats\": ["
    for (i = 0; i < nw; i++) printf "%s%s\n", wrows[i], (i < nw-1 ? "," : "")
    print "  ],"
    print "  \"recorder_overhead\": ["
    for (i = 0; i < no; i++) printf "%s%s\n", orows[i], (i < no-1 ? "," : "")
    print "  ],"
    print "  \"pipeline_dag\": ["
    for (i = 0; i < nd; i++) printf "%s%s\n", drows[i], (i < nd-1 ? "," : "")
    print "  ],"
    print "  \"tree_fits\": ["
    for (i = 0; i < nt; i++) printf "%s%s\n", trows[i], (i < nt-1 ? "," : "")
    print "  ],"
    print "  \"linmodel_fits\": ["
    for (i = 0; i < nl; i++) printf "%s%s\n", lrows[i], (i < nl-1 ? "," : "")
    print "  ]"
    print "}"
}
' > "$out"

echo "==> wrote $out"
cat "$out"

if [[ "$gate" == 1 ]]; then
    echo "==> benchgate: comparing against committed BENCH_engine.json"
    go run ./cmd/benchgate -base BENCH_engine.json -new "$out" \
        -ns "${NS_TOL:-0.15}" -allocs "${ALLOC_TOL:-0.15}"
fi
