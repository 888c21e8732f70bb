#!/usr/bin/env bash
# fmacheck.sh — fail if the arm64 build of the gated packages contains a
# fused multiply-add.
#
# The Go spec lets the compiler fuse x*y + z into one FMA instruction,
# which rounds once instead of twice. amd64 never fuses; arm64 does, so
# a fused product would make the same seed give different bits there.
# An explicit float64(x*y) rounds the product and blocks the fusion
# (math.FMA stays legal: it is explicit and the same everywhere). This
# gate cross-compiles the packages for arm64 with -gcflags=-S and fails
# on any FMADDD/FMSUBD/FNMADDD/FNMSUBD line; no arm64 machine is
# needed. The golden tests themselves still run only on the host.
# Widen the gate by adding packages to pkgs.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/bayesopt ./internal/core ./internal/ensemble ./internal/fl ./internal/fl/codec ./internal/linalg ./internal/linmodel ./internal/metafeat ./internal/model ./internal/pipeline ./internal/search ./internal/stats ./internal/timeseries ./internal/tree ./internal/tsa)

asm="$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)"
if ! grep -q 'STEXT' <<<"$asm"; then
    echo "fmacheck: no assembly listing for ${pkgs[*]}" >&2
    exit 1
fi
if fused="$(grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' <<<"$asm")"; then
    echo "fmacheck: fused multiply-add in the arm64 build of ${pkgs[*]}:" >&2
    echo "$fused" >&2
    echo "fmacheck: round the product with an explicit float64(...)" >&2
    exit 1
fi
echo "fmacheck: no fused multiply-add in ${pkgs[*]}"
