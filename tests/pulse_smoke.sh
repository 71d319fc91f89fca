#!/usr/bin/env bash
# Live telemetry smoke: pulse streams from a finished run, an
# interrupted run, a truncated stream and a multiplexed sweep, each
# checked with grpmon.
#
# Usage: tests/pulse_smoke.sh GRPSIM GRPMON TAB01_SUMMARY
#   Each argument is the path of that built binary (ctest passes
#   them); through ctest: ctest -L smoke.
#
# Runs in a fresh temporary directory that is removed on exit. Each
# step prints its name first, so a failure names the step.

set -euo pipefail

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
grpsim=$(abspath "$1")
grpmon=$(abspath "$2")
tab01=$(abspath "$3")
work=$(mktemp -d)
pid=
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2> /dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

step() { echo "pulse_smoke: $*"; }

step "a 200k run with pulses"
"$grpsim" --workload mcf --scheme grp-var --instructions 200000 \
    --pulse run.pulse.jsonl --stats-json run-stats.json > run.out

step "grpmon --check and the verdict"
# --check replays the whole stream through analyzePulse, which
# asserts strictly increasing seq, a non-decreasing monotonic clock
# and non-decreasing per-job instruction counters; it exits 0
# ("healthy") when all of that held and the stream sealed without
# watchdog warnings.
"$grpmon" run.pulse.jsonl --check
"$grpmon" run.pulse.jsonl

step "SIGINT mid-run exports parseable partial artefacts"
# A window the run cannot finish, interrupted once its first beat is
# on disk, so the signal lands mid-run however fast the simulator is.
"$grpsim" --workload mcf --scheme grp-var --instructions 10000000000 \
    --pulse stop.pulse.jsonl --stats-json stop-stats.json > stop.out &
pid=$!
for _ in $(seq 1 300); do
    if grep -q '"ev":"beat"' stop.pulse.jsonl 2> /dev/null; then
        break
    fi
    sleep 0.1
done
grep -q '"ev":"beat"' stop.pulse.jsonl || {
    echo "no beat within 30 s" >&2; exit 1; }
kill -INT "$pid"
status=0
wait "$pid" || status=$?
pid=
test "$status" -eq 130 || {
    echo "expected exit 130, got $status" >&2; exit 1; }
python3 - <<'EOF'
import json
stats = json.load(open("stop-stats.json"))
assert stats.get("partial") is True, stats.keys()
assert "provenance" in stats
assert stats["groups"], "no stat groups exported"
print("partial stats export OK:", len(stats["groups"]), "groups")
EOF
"$grpmon" stop.pulse.jsonl --check

step "a truncated stream is a distinct, detected state"
grep -v '"ev":"seal"' run.pulse.jsonl > truncated.jsonl
status=0
"$grpmon" truncated.jsonl --check > /dev/null || status=$?
test "$status" -eq 2 || {
    echo "expected truncated (2), got $status" >&2; exit 1; }

step "multiplexed sweep stream via GRP_PULSE"
GRP_BENCH_OUT="$work/bench" GRP_INSTRUCTIONS=20000 \
    GRP_PULSE=sweep.pulse.jsonl "$tab01" > /dev/null
"$grpmon" sweep.pulse.jsonl --check
python3 - <<'EOF'
import json
jobs = set()
with open("sweep.pulse.jsonl") as f:
    for line in f:
        rec = json.loads(line)
        if "job" in rec:
            jobs.add(rec["job"])
assert len(jobs) > 10, f"expected many jobs, saw {jobs}"
print(f"multiplexed stream carries {len(jobs)} jobs")
EOF
