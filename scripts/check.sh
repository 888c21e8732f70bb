#!/usr/bin/env bash
# check.sh — the tier-1+ verification gate:
#
#   build → vet → gofmt → fmacheck → fedlint → test → race
#
# Runs the tier-1 checks (build + full test suite), the formatting and
# project-lint gates, and then the race detector over the whole
# module. The federated substrate performs concurrent quorum
# broadcasts racing against retries, timeouts, and transport shutdown,
# so -race is part of the bar, not an extra; likewise the fedlint
# determinism/hygiene rules (see DESIGN.md "Determinism policy") and
# the concurrency-policy rules — lockguard (annotated mutex
# discipline), goroleak (goroutine termination evidence), deadlineflow
# (every engine-reachable network call passes the fl retry layer), and
# codeccover (wire-schema/vocabulary drift) — see DESIGN.md
# "Concurrency policy as code". The race detector observes only the
# schedules the suite happens to run; the static rules hold on every
# path, so the two layers are complementary, not redundant.
#
# The fmacheck step cross-compiles the gated packages (the pkgs line
# of scripts/fmacheck.sh) for arm64 and fails on any fused
# multiply-add: same-seed bit identity must not depend on the
# architecture.
#
# The perflint step re-runs just the hot-path performance rules
# (hotalloc/bigcopy/prealloc/deferloop/iboxing — see DESIGN.md
# "Performance policy as code") so a perf-policy regression is named
# as such in the log, not buried in the all-rules step.
#
# Usage:
#   scripts/check.sh          # build, test, race-test everything
#   scripts/check.sh -quick   # race-test only the concurrency-heavy
#                             # packages (fl, core) for fast iteration
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> fmacheck (arm64: no fused multiply-add in the packages listed in scripts/fmacheck.sh)"
scripts/fmacheck.sh

echo "==> fedlint ./internal/obs (telemetry: no stray wall-clock reads)"
go run ./cmd/fedlint ./internal/obs

echo "==> fedlint ./... (all rules, incl. lockguard/goroleak/deadlineflow/codeccover/deadexport)"
go run ./cmd/fedlint ./...

echo "==> fedlint -only hotalloc,bigcopy,prealloc,deferloop,iboxing ./... (perf policy)"
go run ./cmd/fedlint -only hotalloc,bigcopy,prealloc,deferloop,iboxing ./...

echo "==> go test ./..."
go test ./...

if [[ "${1:-}" == "-quick" ]]; then
    echo "==> go test -race ./internal/fl/... ./internal/core/... (quick)"
    go test -race ./internal/fl/... ./internal/core/...
else
    echo "==> go test -race ./..."
    go test -race ./...
fi

echo "OK"
