#!/usr/bin/env bash
# Every baselined bench artefact, byte for byte, at one and at four
# sweep threads.
#
# Usage: tests/bench_artefacts.sh BASELINES_DIR BENCH...
#   BASELINES_DIR holds the committed <bench>.json artefacts and each
#   BENCH is a built bench binary that writes one of them (ctest
#   passes bench/baselines and the six baselined benches); through
#   ctest: ctest -L smoke.
#
# Each bench runs on the default DRAM backend at GRP_INSTRUCTIONS=
# 100000, the budget the baselines were generated at, with
# GRP_BENCH_THREADS 1 and 4. Both artefacts must byte-match the
# baseline: tools/bench_compare.py lets count-valued metrics drift
# within tolerances, this lets nothing move, and the thread pair
# checks the sweep's determinism invariant.
#
# Runs in a fresh temporary directory that is removed on exit. Each
# step prints its name first, so a failure names the step.

set -euo pipefail

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
baselines=$(abspath "$1")
shift
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
unset GRP_DRAM

for bench in "$@"; do
    bench=$(abspath "$bench")
    name=$(basename "$bench")
    for threads in 1 4; do
        echo "bench_artefacts: $name, $threads thread(s)"
        out="$work/$name-$threads"
        mkdir -p "$out"
        GRP_INSTRUCTIONS=100000 GRP_BENCH_THREADS=$threads \
            GRP_BENCH_OUT="$out" "$bench" > "$out/log"
        cmp "$out/$name.json" "$baselines/$name.json"
    done
done
