#!/usr/bin/env bash
# bench.sh — run the engine benchmarks and emit their numbers as
# BENCH_engine.json for tracking across commits.
#
# BenchmarkEngineRounds runs a full seeded engine run at batch sizes
# 1/4/8 and reports, per q: wall-clock ns/op, evaluation rounds,
# total federated rounds, and exact lossless v1 payload bytes both ways
# (Server.Stats). BenchmarkEngineWire repeats the q=8 workload across
# the wire tiers (v1, v1+q8, v1+q16), so the bytes_down/bytes_up
# reduction of the quantized tiers is tracked per commit.
# BenchmarkRecorderOverhead runs the same workload at q=4 with
# telemetry off (nil recorder), with the Prometheus aggregator
# attached, and with a metrics+JSONL fan-out, so the telemetry tax
# stays visible next to the protocol numbers.
# BenchmarkPipelineDAG prices the pipeline executor's steady-state
# candidate evaluation (the ClientNode hot path) for the paper's
# chain, a fully branched structure template, and the chain under
# 3-fold rolling-origin CV, so structure search's per-candidate cost
# is tracked next to the round protocol it feeds. BenchmarkTreeFits prices
# the shared tree core on tie-heavy columns at three engine shapes: the
# per-client random-forest importance fit of the feature-selection round
# and XGB candidate fits at a batch-wide and a graph-cv client's shape.
# BenchmarkLinmodelFits prices the linear fits (Lasso cyclic and
# random, ElasticNetCV, Huber, Quantile) at a chaos-rounds and a
# paper-seq client's n×p, and Quantile at a batch-wide client's. BenchmarkMetaModels prices one fit of each of the eight
# Table 4 meta-model classifiers on the whole kb.json knowledge base.
#
# All benchmarks run under -benchmem, so every JSON row also carries
# bytes_per_op and allocs_per_op — the numbers the perflint retrofit
# (hotalloc/bigcopy/prealloc/deferloop/iboxing) is accounted against.
#
# Every benchmark runs -count 5 times and each JSON field is the median
# of its five samples, so one slow or lucky sample neither sets the
# baseline nor trips the gate. Next to each ns_per_op median the row
# records ns_per_op_q1 and ns_per_op_q3, the second and fourth of the
# five sorted samples: the gate lets a row's wall clock rise by its own
# interquartile distance when that is wider than the tolerance.
#
# The JSON is one object with seven lists:
#   {"engine_rounds": [...one object per q...],
#    "wire_formats": [...one object per wire format, all at q=8...],
#    "recorder_overhead": [...one object per recorder mode...],
#    "pipeline_dag": [...one object per graph shape...],
#    "tree_fits": [...one object per tree-fit shape...],
#    "linmodel_fits": [...one object per linear-fit shape...],
#    "meta_models": [...one object per Table 4 classifier...]}
#
# Usage:
#   scripts/bench.sh               # writes BENCH_engine.json in the repo root
#   BENCHTIME=5x scripts/bench.sh  # more iterations per sample
#   scripts/bench.sh -gate         # regression gate: measure into a temp
#                                  # file and fail (exit 1, offending rows
#                                  # printed) when any section's median
#                                  # ns_per_op regressed >15% and by more
#                                  # than its baseline IQR, allocs_per_op
#                                  # regressed >15%, or a committed row
#                                  # was not measured
#   NS_TOL=0 scripts/bench.sh -gate    # gate allocs only (CI: wall-clock
#   ALLOC_TOL=0.15                     # is too noisy on shared runners)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
count=5
out="BENCH_engine.json"
gate=0
if [[ "${1:-}" == "-gate" ]]; then
    gate=1
    out="$(mktemp /tmp/bench_engine.XXXXXX.json)"
    trap 'rm -f "$out"' EXIT
fi

echo "==> go test -bench='EngineRounds|EngineWire|RecorderOverhead' -benchmem -benchtime=$benchtime -count $count ./internal/core/"
raw="$(go test -bench='EngineRounds|EngineWire|RecorderOverhead' -benchmem -benchtime="$benchtime" -count "$count" -run '^$' ./internal/core/)"
echo "$raw"

echo "==> go test -bench=PipelineDAG -benchmem -benchtime=$benchtime -count $count ./internal/pipeline/"
rawdag="$(go test -bench='PipelineDAG' -benchmem -benchtime="$benchtime" -count "$count" -run '^$' ./internal/pipeline/)"
echo "$rawdag"

echo "==> go test -bench=TreeFits -benchmem -benchtime=$benchtime -count $count ./internal/ensemble/"
rawtree="$(go test -bench='TreeFits' -benchmem -benchtime="$benchtime" -count "$count" -run '^$' ./internal/ensemble/)"
echo "$rawtree"

echo "==> go test -bench=LinmodelFits -benchmem -benchtime=$benchtime -count $count ./internal/linmodel/"
rawlin="$(go test -bench='LinmodelFits' -benchmem -benchtime="$benchtime" -count "$count" -run '^$' ./internal/linmodel/)"
echo "$rawlin"

echo "==> go test -bench=MetaModels -benchmem -benchtime=$benchtime -count $count ./internal/metalearn/"
rawmeta="$(go test -bench='MetaModels' -benchmem -benchtime="$benchtime" -count "$count" -run '^$' ./internal/metalearn/)"
echo "$rawmeta"

printf '%s\n%s\n%s\n%s\n%s\n' "$raw" "$rawdag" "$rawtree" "$rawlin" "$rawmeta" | awk '
# Every benchmark line is one sample of one row. A row is keyed by its
# identifying JSON ("q": 4, "wire": "v1+q8", ...); its fields are the
# Go benchmark units named in unit[], and each is written as the
# quantile quant[] (the median unless set) of that field over the
# samples of the row.
BEGIN {
    unit["ns_per_op"] = "ns/op"; unit["eval_rounds"] = "evalrounds"
    unit["ns_per_op_q1"] = "ns/op"; quant["ns_per_op_q1"] = 0.25
    unit["ns_per_op_q3"] = "ns/op"; quant["ns_per_op_q3"] = 0.75
    unit["rounds"] = "rounds"; unit["bytes_down"] = "bytesdown"
    unit["bytes_up"] = "bytesup"; unit["folds"] = "folds"
    unit["bytes_per_op"] = "B/op"; unit["allocs_per_op"] = "allocs/op"
    ns = "ns_per_op ns_per_op_q1 ns_per_op_q3"
    engine = ns " eval_rounds rounds bytes_down bytes_up bytes_per_op allocs_per_op"
    fit = ns " bytes_per_op allocs_per_op"
    fields["engine_rounds"] = engine; fields["wire_formats"] = engine
    fields["recorder_overhead"] = fit; fields["tree_fits"] = fit; fields["linmodel_fits"] = fit
    fields["meta_models"] = fit
    fields["pipeline_dag"] = ns " folds bytes_per_op allocs_per_op"
    nsec = split("engine_rounds wire_formats recorder_overhead pipeline_dag tree_fits linmodel_fits meta_models", secs, " ")
}
# name returns the sub-benchmark name after sep, without the
# -GOMAXPROCS suffix.
function name(sep,   parts) {
    split($1, parts, sep)
    sub(/-[0-9]+$/, "", parts[2])
    return parts[2]
}
# sample records the current line as one sample of row head in sec.
function sample(sec, head,   key, s, i) {
    key = sec SUBSEP head
    if (!(key in nsamp)) rows[sec, nrows[sec]++] = head
    s = nsamp[key]++
    for (i = 2; i < NF; i++) val[key, $(i+1), s] = $i
}
/^BenchmarkEngineRounds\// { sample("engine_rounds", "\"q\": " name("=")) }
/^BenchmarkEngineWire\// { sample("wire_formats", "\"q\": 8, \"wire\": \"" name("=") "\"") }
/^BenchmarkRecorderOverhead\// { sample("recorder_overhead", "\"recorder\": \"" name("/") "\"") }
/^BenchmarkPipelineDAG\// { sample("pipeline_dag", "\"graph\": \"" name("=") "\"") }
/^BenchmarkTreeFits\// { sample("tree_fits", "\"shape\": \"" name("=") "\"") }
/^BenchmarkLinmodelFits\// { sample("linmodel_fits", "\"shape\": \"" name("=") "\"") }
/^BenchmarkMetaModels\// { sample("meta_models", "\"model\": \"" name("=") "\"") }
# pick returns the q-quantile sample of one field, as the benchmark
# printed it: of the n sorted samples, the one at int(q·(n−1)), so the
# median is the middle one (the lower middle for an even count) and, of
# five, the quartiles are the second and the fourth.
function pick(key, u, q,   n, v, i, j, t) {
    n = nsamp[key]
    for (i = 0; i < n; i++) v[i] = val[key, u, i]
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    return v[int(q * (n - 1))]
}
END {
    print "{"
    for (si = 1; si <= nsec; si++) {
        sec = secs[si]
        printf "  \"%s\": [\n", sec
        nf = split(fields[sec], names, " ")
        for (r = 0; r < nrows[sec]; r++) {
            head = rows[sec, r]
            line = "    {" head
            for (f = 1; f <= nf; f++) {
                q = (names[f] in quant) ? quant[names[f]] : 0.5
                line = line ", \"" names[f] "\": " pick(sec SUBSEP head, unit[names[f]], q)
            }
            printf "%s}%s\n", line, (r < nrows[sec] - 1 ? "," : "")
        }
        printf "  ]%s\n", (si < nsec ? "," : "")
    }
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
