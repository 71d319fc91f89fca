#!/usr/bin/env bash
# End-to-end smoke over the built binaries: tracing and its tools,
# then the examples that author their own kernels.
#
# Usage: tests/smoke.sh GRPSIM GRPTRACE CUSTOM_KERNEL INDIRECT_ARRAY \
#                       POINTER_CHASE
#   Each argument is the path of that built binary (ctest passes
#   them); through ctest: ctest -L smoke.
#
# Runs in a fresh temporary directory that is removed on exit. Each
# step prints its name first, so a failure names the step.

set -euo pipefail

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
grpsim=$(abspath "$1")
grptrace=$(abspath "$2")
custom_kernel=$(abspath "$3")
indirect_array=$(abspath "$4")
pointer_chase=$(abspath "$5")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

step() { echo "smoke: $*"; }

step "trace a shadowed run"
# Level 2 includes the evict-victim / pollution-miss records the
# analyzer's attribution invariant consumes.
"$grpsim" --workload mcf --scheme srp --instructions 20000 \
    --trace trace.grpbin --trace-level 2 --shadow --cost-report \
    > srp.out

step "validate the trace (invariants + exports)"
"$grptrace" --quiet trace.grpbin --chrome trace-chrome.json \
    --summary-json trace-summary.json

step "trace an adaptive run"
# Exercises the ctrlTransition records and the controller report.
"$grpsim" --workload mcf --scheme grp-adaptive \
    --instructions 20000 --trace adaptive.grpbin --trace-level 2 \
    --shadow --adaptive-report > adaptive.out
"$grptrace" --quiet adaptive.grpbin

step "a trace path that is not .grpbin fails before simulating"
if "$grpsim" --workload mcf --trace trace.jsonl 2> /dev/null; then
    echo "non-.grpbin trace path accepted" >&2
    exit 1
fi
test ! -e trace.jsonl

step "indexed query mode"
"$grptrace" trace.grpbin --ev fill --window 1000: > /dev/null

step "streamed trace over a pipe"
"$grpsim" --workload mcf --scheme srp --instructions 20000 \
    --trace - --trace-level 2 | "$grptrace" --quiet -

step "a truncated trace is a distinct, detected error"
head -c 3000 trace.grpbin > damaged.grpbin
if "$grptrace" --quiet damaged.grpbin 2> /dev/null ||
        "$grptrace" damaged.grpbin > damaged.out 2>&1; then
    echo "truncated trace not detected" >&2
    exit 1
fi
grep -q "truncated or unfinalized" damaged.out

step "custom_kernel"
"$custom_kernel" > custom_kernel.out

step "indirect_array"
"$indirect_array" > indirect_array.out

step "pointer_chase writes one consistent trace per run"
GRP_TRACE_ALL="$work/chase" GRP_TRACE_LEVEL=2 "$pointer_chase" \
    > pointer_chase.out
shopt -s nullglob
traces=("$work"/chase/*.grpbin)
if [ "${#traces[@]}" -ne 20 ]; then
    echo "expected 20 pointer_chase traces, found ${#traces[@]}" >&2
    exit 1
fi
for trace in "${traces[@]}"; do
    "$grptrace" --quiet "$trace"
done

step "ok"
