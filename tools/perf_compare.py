#!/usr/bin/env python3
"""Gate simulator throughput against a committed perf manifest.

Usage:
    tools/perf_compare.py [--baseline bench/baselines/perf_manifest.json]
                          [--manifest bench/out/manifest.json ...]
                          [--tolerance 0.15] [--strict] [--update]

Compares the new bench manifest's simulated-instructions-per-second
figures — aggregate and per bench — against the committed baseline
manifest. A drop beyond --tolerance (default 15%) fails the gate;
improvements and small noise pass. For every regressed bench the
host-phase self-time shares from both manifests are printed side by
side, so the failure names the phase (interpreter, L2, MSHR, DRAM,
engine, stats overhead) whose share grew instead of just saying
"slower".

--manifest may be given more than once, one per run of the benches.
The gate then reads the median of the runs: each figure (aggregate
and per-bench inst/s, each host phase's times) is the median over the
runs that have it. On a shared host single runs of one commit vary by
far more than the tolerance, so CI gates the median of three.

Throughput is only comparable between runs on the same machine and
build: when the two manifests' provenance disagrees (different CPU
model, compiler, build type or thread count), failures are
downgraded to warnings unless --strict forces them. CI pins a serial
provenance (GRP_BENCH_THREADS=1) and commits the baseline from the
same runner class, so the gate stays meaningful there.

--update rewrites the baseline from the new manifest, or from the
median of the runs given (after a deliberate perf change or a runner
migration); commit the result.

Exit status: 0 when within tolerance (or mismatched provenance
without --strict), 1 on a gated regression or on missing or malformed
inputs. A malformed manifest gets one line naming the file, the field
and the problem.
"""

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

# Provenance fields that make throughput numbers comparable at all.
PROVENANCE_KEYS = (
    "cpuModel", "compiler", "buildType", "cxxFlags", "benchThreads",
    "traceMode")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def manifest_problem(manifest):
    """(field, problem) for the first field this tool reads whose type
    it cannot use, or None when every such field is usable."""
    if not isinstance(manifest, dict):
        return "<root>", "not a JSON object"
    if not isinstance(manifest.get("provenance") or {}, dict):
        return "provenance", "not a JSON object"
    benches = manifest.get("benches", {})
    if not isinstance(benches, dict):
        return "benches", "not a JSON object"
    figures = [("instructionsPerSecond",
                manifest.get("instructionsPerSecond"))]
    for name, data in benches.items():
        field = f"benches.{name}"
        if not isinstance(data, dict):
            return field, "not a JSON object"
        figures.append((f"{field}.instructionsPerSecond",
                        data.get("instructionsPerSecond")))
        phases = data.get("hostPhases") or {}
        if not isinstance(phases, dict):
            return f"{field}.hostPhases", "not a JSON object"
        for phase, totals in phases.items():
            if not isinstance(totals, dict) or \
                    not is_number(totals.get("selfNanos", 0)):
                return (f"{field}.hostPhases.{phase}",
                        "not an object with a numeric selfNanos")
    for field, value in figures:
        if value is not None and not is_number(value):
            return field, f"{value!r} is not a number"
    return None


def load(path):
    """The manifest at path, or None after one line naming the file,
    the field and the problem."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        field, problem = "<root>", f"cannot read: {err.strerror}"
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        field, problem = "<root>", f"not UTF-8 JSON: {err}"
    else:
        found = manifest_problem(manifest)
        if found is None:
            return manifest
        field, problem = found
    print(f"perf_compare: {path}: {field}: {problem}", file=sys.stderr)
    return None


def median_of(values):
    """The median of the numbers among values, None without any."""
    numbers = [v for v in values if is_number(v)]
    return statistics.median(numbers) if numbers else None


def median_manifest(manifests):
    """One manifest whose inst/s figures and host-phase times are the
    medians over manifests (the first one's other fields)."""
    if len(manifests) == 1:
        return manifests[0]
    merged = copy.deepcopy(manifests[0])
    merged["instructionsPerSecond"] = median_of(
        m.get("instructionsPerSecond") for m in manifests)
    merged["medianOfRuns"] = len(manifests)
    all_benches = [m.get("benches") or {} for m in manifests]
    benches = merged.setdefault("benches", {})
    for name in sorted(set().union(*all_benches)):
        runs = [b[name] for b in all_benches if name in b]
        bench = benches.setdefault(name, copy.deepcopy(runs[0]))
        bench["instructionsPerSecond"] = median_of(
            run.get("instructionsPerSecond") for run in runs)
        phases = [run.get("hostPhases") or {} for run in runs]
        if any(phases):
            bench["hostPhases"] = {
                phase: {
                    key: median_of(p[phase].get(key) for p in phases
                                   if phase in p)
                    for key in ("totalNanos", "selfNanos", "calls")
                }
                for phase in sorted(set().union(*phases))
            }
    return merged


def inst_per_sec(manifest):
    """(aggregate, {bench: inst/s}) from one manifest; None entries
    for benches without throughput figures."""
    benches = {
        name: data.get("instructionsPerSecond")
        for name, data in (manifest.get("benches") or {}).items()
    }
    return manifest.get("instructionsPerSecond"), benches


def provenance_mismatches(base, new):
    base_prov = base.get("provenance") or {}
    new_prov = new.get("provenance") or {}
    return [
        f"{key}: {new_prov.get(key)!r} != baseline "
        f"{base_prov.get(key)!r}"
        for key in PROVENANCE_KEYS
        if base_prov.get(key) != new_prov.get(key)
    ]


def phase_shares(manifest, bench):
    """{phase: percent of the bench's attributed self time}."""
    phases = (manifest.get("benches", {}).get(bench) or {}).get(
        "hostPhases") or {}
    total = sum(p.get("selfNanos", 0) for p in phases.values())
    if not total:
        return {}
    return {
        name: 100.0 * p.get("selfNanos", 0) / total
        for name, p in phases.items()
    }


def print_phase_deltas(base, new, bench):
    base_shares = phase_shares(base, bench)
    new_shares = phase_shares(new, bench)
    if not base_shares and not new_shares:
        print(f"  {bench}: no host-phase data "
              "(run the sweep with GRP_HOST_PROF=1 to attribute)")
        return
    rows = sorted(
        base_shares.keys() | new_shares.keys(),
        key=lambda name: -new_shares.get(name, 0.0))
    print(f"  {bench}: phase self-time shares (baseline -> new)")
    for name in rows:
        b = base_shares.get(name, 0.0)
        n = new_shares.get(name, 0.0)
        print(f"    {name:16s} {b:5.1f}% -> {n:5.1f}%  "
              f"({n - b:+.1f} points)")


def check(base, new, tolerance):
    """Returns (regressions, lines): regressed bench names (aggregate
    is '<aggregate>') and the report lines for every compared row."""
    base_total, base_benches = inst_per_sec(base)
    new_total, new_benches = inst_per_sec(new)
    regressions = []
    lines = []

    def compare(label, b, n):
        if not b or not n:
            lines.append(f"{label:24s} skipped (no figure)")
            return
        delta = (n - b) / b
        verdict = "ok"
        if delta < -tolerance:
            verdict = f"REGRESSION (limit -{tolerance:.0%})"
            regressions.append(label)
        lines.append(
            f"{label:24s} {b:14.0f} -> {n:14.0f}  {delta:+7.1%}  "
            f"{verdict}")

    compare("<aggregate>", base_total, new_total)
    for bench in sorted(base_benches):
        if bench not in new_benches:
            lines.append(f"{bench:24s} missing from new manifest")
            regressions.append(bench)
            continue
        compare(bench, base_benches[bench], new_benches[bench])
    for bench in sorted(set(new_benches) - set(base_benches)):
        lines.append(f"{bench:24s} new (no baseline)")
    return regressions, lines


def main():
    parser = argparse.ArgumentParser(
        description="Gate simulator inst/s against a baseline "
                    "manifest.")
    parser.add_argument(
        "--baseline", type=Path,
        default=Path("bench/baselines/perf_manifest.json"))
    parser.add_argument("--manifest", type=Path, action="append",
                        help="a run's manifest; repeat it to gate the "
                             "median of several runs (default "
                             "bench/out/manifest.json)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max fractional inst/s drop (0.15=15%%)")
    parser.add_argument("--strict", action="store_true",
                        help="fail even across provenance mismatches")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from --manifest")
    args = parser.parse_args()

    runs = [load(path) for path in
            args.manifest or [Path("bench/out/manifest.json")]]
    if None in runs:
        return 1
    new = median_manifest(runs)

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(new, indent=2) + "\n")
        print(f"perf_compare: baseline updated: {args.baseline}")
        return 0

    base = load(args.baseline)
    if base is None:
        print("perf_compare: no baseline — generate one with "
              "--update and commit it", file=sys.stderr)
        return 1

    regressions, lines = check(base, new, args.tolerance)
    print(f"{'bench':24s} {'baseline':>14s}    {'new':>14s}  "
          f"{'delta':>7s}")
    for line in lines:
        print(line)

    mismatches = provenance_mismatches(base, new)
    for mismatch in mismatches:
        print(f"perf_compare: provenance mismatch: {mismatch}",
              file=sys.stderr)

    if not regressions:
        print(f"perf_compare: throughput within {args.tolerance:.0%} "
              "of baseline")
        return 0

    print(f"perf_compare: {len(regressions)} regression(s): "
          f"{', '.join(regressions)}", file=sys.stderr)
    attributed = set()
    for bench in regressions:
        targets = ([bench] if bench != "<aggregate>"
                   else sorted((base.get("benches") or {}).keys()))
        for b in targets:
            if b not in attributed:
                attributed.add(b)
                print_phase_deltas(base, new, b)

    if mismatches and not args.strict:
        print("perf_compare: provenance differs — regressions "
              "downgraded to warnings (use --strict to enforce)",
              file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
