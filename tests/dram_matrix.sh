#!/usr/bin/env bash
# DRAM backend x stall fast-forward matrix over the tab01 summary
# bench, at the window the committed baselines were generated with.
#
# Usage: tests/dram_matrix.sh TAB01_SUMMARY BASELINES_DIR
#   TAB01_SUMMARY is the built bench binary and BASELINES_DIR holds
#   the committed tab01_summary.json (ctest passes both); through
#   ctest: ctest -L smoke.
#
# - GRP_DRAM=legacy must be indistinguishable from the default the
#   baselines were generated with: with fast forward on and off, its
#   artefact byte-matches the committed baseline.
# - ddr4-2400 runs the cycle-accurate backend across the whole grid.
#   Fast forward must be invisible in its artefact, and the artefact
#   must differ from legacy (an identical one means the backend is
#   inert).
#
# Runs in a fresh temporary directory that is removed on exit. Each
# step prints its name first, so a failure names the step.

set -euo pipefail

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
tab01=$(abspath "$1")
baseline=$(abspath "$2")/tab01_summary.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

step() { echo "dram_matrix: $*"; }

# run DRAM FF: the artefact lands in $work/DRAM-ffFF/.
run() {
    local out="$work/$1-ff$2"
    mkdir -p "$out"
    GRP_DRAM=$1 GRP_FAST_FORWARD=$2 GRP_INSTRUCTIONS=100000 \
        GRP_BENCH_THREADS=4 GRP_BENCH_OUT="$out" "$tab01" > "$out/log"
}

for ff in 1 0; do
    step "legacy, fast forward $ff: matches the committed baseline"
    run legacy "$ff"
    cmp "$work/legacy-ff$ff/tab01_summary.json" "$baseline"
done

for ff in 1 0; do
    step "ddr4-2400, fast forward $ff"
    run ddr4-2400 "$ff"
    grep -q '"schema"' "$work/ddr4-2400-ff$ff/tab01_summary.json"
done

step "ddr4-2400: fast forward on and off give the same artefact"
cmp "$work/ddr4-2400-ff1/tab01_summary.json" \
    "$work/ddr4-2400-ff0/tab01_summary.json"

step "ddr4-2400: the artefact differs from legacy"
if cmp -s "$work/ddr4-2400-ff1/tab01_summary.json" "$baseline"; then
    echo "ddr4-2400 artefact identical to legacy: backend inert" >&2
    exit 1
fi
