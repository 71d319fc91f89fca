#!/usr/bin/env python3
"""Compare bench JSON artefacts against committed baselines.

Usage:
    tools/bench_compare.py [--baseline bench/baselines] [--out bench/out]
                           [--list-tolerances]

Walks every *.json in the baseline directory, loads the artefact of
the same name from the output directory, and diffs them leaf by leaf.
Structure (missing/extra keys, mismatched types) must match exactly;
numeric leaves are compared under per-metric tolerances keyed on the
leaf's key name, so a simulator change that shifts a headline metric
beyond its tolerance fails the gate while benign noise does not.

The simulator is deterministic for a fixed seed and instruction
budget, so the tolerances are deliberately tight: they exist to
absorb intentional-but-small modelling drift, not run-to-run noise.
The tier-1 ctest `bench_artefacts` (tests/bench_artefacts.sh) allows
no drift at all: it byte-compares each baselined artefact. Regenerate
a baseline on purpose, at the budget every baseline records, with:

    GRP_INSTRUCTIONS=100000 GRP_BENCH_OUT=bench/baselines \
        build/bench/<bench_name>

Exit status: 0 when everything matches, 1 with one line per failure
otherwise. An unreadable or malformed input is a failure whose line
names the file, the field and the problem.
"""

import argparse
import json
import sys
from pathlib import Path

# (kind, tolerance) per leaf key. "rel": |a-b| <= tol * max(|a|,|b|);
# "abs": |a-b| <= tol; "exact": equality (also the default for
# non-numeric leaves and schema/config fields).
TOLERANCES = {
    # Identity / configuration: must never drift silently.
    "schema": ("exact", 0),
    "instructions": ("exact", 0),
    "label": ("exact", 0),
    # Paper reference values are constants.
    "paperSpeedup": ("exact", 0),
    "paperTraffic": ("exact", 0),
    "paperGap": ("exact", 0),
    # Headline ratios.
    "speedup": ("rel", 0.02),
    "trafficRatio": ("rel", 0.05),
    # Percent-valued metrics compare in absolute points.
    "gapFromPerfectPct": ("abs", 5.0),
    "accuracyPct": ("abs", 5.0),
    "coveragePct": ("abs", 5.0),
    "meanCoveragePct": ("abs", 5.0),
    "missRatePct": ("abs", 5.0),
    # Adaptive-controller activity (ext_adaptive): epoch count tracks
    # simulated cycles; knob moves are few, so allow wider drift.
    "controllerEpochs": ("rel", 0.10),
    "controllerTransitions": ("rel", 0.25),
    # DRAM backend sweep (ext_dram_backend): absolute IPC shifts with
    # core-model drift; the row-hit rate is a protocol property and
    # compares in points; refresh counts track simulated time.
    "baselineIpc": ("rel", 0.05),
    "rowHitRatePct": ("abs", 5.0),
    "refreshes": ("rel", 0.10),
    # Raw event counts.
    "trafficBytes": ("rel", 0.10),
    "baseTrafficBytes": ("rel", 0.10),
    "prefetchFills": ("rel", 0.10),
    "usefulPrefetches": ("rel", 0.10),
    "warmupUsefulPrefetches": ("rel", 0.10),
    "benchmarks": ("exact", 0),  # Suite size (when a scalar).
    # Counterfactual cost artefact (tab_cost): identity fields are
    # structural (bool/strings compare exactly by default); event
    # counts and cycle totals drift with modelling changes.
    "workload": ("exact", 0),
    "scheme": ("exact", 0),
    "identityHolds": ("exact", 0),
    "l2DemandAccesses": ("rel", 0.10),
    "bothHits": ("rel", 0.10),
    "baselineMisses": ("rel", 0.10),
    "coverageHits": ("rel", 0.10),
    "pollutionMisses": ("rel", 0.10),
    "shadowMisses": ("rel", 0.10),
    "realMisses": ("rel", 0.10),
    "attributed": ("rel", 0.10),
    "unattributed": ("rel", 0.10),
    "victimsRecorded": ("rel", 0.10),
    "victimDrops": ("rel", 0.10),
    "demandCycles": ("rel", 0.10),
    "prefetchCycles": ("rel", 0.10),
    "writebackCycles": ("rel", 0.10),
    "idleCycles": ("rel", 0.10),
    "demandStallCycles": ("rel", 0.10),
}
DEFAULT_TOLERANCE = ("rel", 0.05)

# Timing-only fields (bench sidecars, manifest throughput figures)
# are machine- and thread-count-dependent; never compare them even if
# one slips into a baselined artefact.
TIMING_KEYS = {
    "wallSeconds",
    "totalWallSeconds",
    "benchWallSeconds",
    "wallClockSeconds",
    "instructionsPerSecond",
    "simulatedInstructions",
    "threads",
    "benchThreads",
    "finishedAtUnix",
    # Host-side self-profiling blocks and build/machine provenance:
    # machine-dependent by definition (perf_compare.py owns gating
    # on them).
    "hostProf",
    "hostPhases",
    "provenance",
}


def load_json(path):
    """(document, None), or (None, "<file>: <root>: <problem>") when
    the file cannot be read or is not UTF-8 JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except OSError as err:
        return None, f"{path}: <root>: cannot read: {err.strerror}"
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        return None, f"{path}: <root>: not UTF-8 JSON: {err}"


def load_provenance(path):
    """(the manifest's provenance block, None), or (None, failure
    line) when the manifest at path is malformed."""
    manifest, problem = load_json(path)
    if problem:
        return None, problem
    if not isinstance(manifest, dict):
        return None, f"{path}: <root>: not a JSON object"
    provenance = manifest.get("provenance") or {}
    if not isinstance(provenance, dict):
        return None, f"{path}: provenance: not a JSON object"
    return provenance, None


def provenance_warnings(baseline_dir, out_dir, failures):
    """Compare the two manifests' provenance blocks; mismatches are
    warnings, not failures — timing baselines from another machine
    are expected, perf numbers from one are not trustworthy. A
    malformed manifest appends a line to failures instead."""
    warnings = []
    pair = []
    for where in (baseline_dir, out_dir):
        path = where / "manifest.json"
        if not path.is_file():
            return warnings
        provenance, problem = load_provenance(path)
        if problem:
            failures.append(problem)
            return warnings
        pair.append(provenance)
    base, out = pair
    for key in sorted(base.keys() | out.keys()):
        if base.get(key) != out.get(key):
            warnings.append(
                f"provenance.{key}: {out.get(key)!r} != baseline "
                f"{base.get(key)!r}")
    return warnings


def leaf_matches(key, base, out):
    """Return None on a match, else a human-readable reason."""
    if isinstance(base, bool) or isinstance(out, bool) or \
            not isinstance(base, (int, float)) or \
            not isinstance(out, (int, float)):
        return None if base == out else f"{out!r} != baseline {base!r}"
    kind, tol = TOLERANCES.get(key, DEFAULT_TOLERANCE)
    if kind == "exact":
        return None if base == out else f"{out} != baseline {base}"
    delta = abs(out - base)
    if kind == "abs":
        if delta <= tol:
            return None
        return f"{out} vs baseline {base}: |delta| {delta:g} > {tol}"
    limit = tol * max(abs(base), abs(out))
    if delta <= limit:
        return None
    return (f"{out} vs baseline {base}: |delta| {delta:g} > "
            f"{tol:g} relative")


def diff(path, key, base, out, failures):
    where = path or "<root>"
    if key in TIMING_KEYS:
        return
    if type(base) is not type(out) and not (
            isinstance(base, (int, float)) and
            isinstance(out, (int, float)) and
            not isinstance(base, bool) and not isinstance(out, bool)):
        failures.append(f"{where}: type {type(out).__name__} != "
                        f"baseline {type(base).__name__}")
        return
    if isinstance(base, dict):
        for k in sorted(base.keys() | out.keys()):
            child = f"{path}.{k}" if path else k
            if k not in out:
                failures.append(f"{child}: missing from output")
            elif k not in base:
                failures.append(f"{child}: not in baseline")
            else:
                diff(child, k, base[k], out[k], failures)
        return
    if isinstance(base, list):
        if len(base) != len(out):
            failures.append(f"{where}: length {len(out)} != "
                            f"baseline {len(base)}")
            return
        for i, (b, o) in enumerate(zip(base, out)):
            diff(f"{path}[{i}]", key, b, o, failures)
        return
    reason = leaf_matches(key, base, out)
    if reason:
        failures.append(f"{where}: {reason}")


def main():
    parser = argparse.ArgumentParser(
        description="Diff bench JSON artefacts against baselines.")
    parser.add_argument("--baseline", default="bench/baselines",
                        type=Path)
    parser.add_argument("--out", default="bench/out", type=Path)
    parser.add_argument("--list-tolerances", action="store_true")
    args = parser.parse_args()

    if args.list_tolerances:
        for key, (kind, tol) in sorted(TOLERANCES.items()):
            print(f"{key:28s} {kind:5s} {tol}")
        print(f"{'<default>':28s} {DEFAULT_TOLERANCE[0]:5s} "
              f"{DEFAULT_TOLERANCE[1]}")
        return 0

    # perf_manifest.json is the perf gate's baseline (perf_compare.py),
    # not a bench artefact — there is no bench/out counterpart to diff.
    baselines = sorted(path for path in args.baseline.glob("*.json")
                       if path.name != "perf_manifest.json")
    if not baselines:
        print(f"bench_compare: no baselines under {args.baseline}",
              file=sys.stderr)
        return 1

    failures = []
    for base_path in baselines:
        out_path = args.out / base_path.name
        if not out_path.exists():
            failures.append(f"{base_path.name}: not generated "
                            f"(expected {out_path})")
            continue
        base, problem = load_json(base_path)
        if problem is None:
            out, problem = load_json(out_path)
        if problem:
            failures.append(problem)
            continue
        mismatches = []
        diff("", "", base, out, mismatches)
        failures.extend(f"{out_path}: {m}" for m in mismatches)
        print(f"{base_path.name}: {'FAIL' if mismatches else 'ok'}")

    for warning in provenance_warnings(args.baseline, args.out,
                                       failures):
        print(f"bench_compare: warning: {warning}", file=sys.stderr)

    for failure in failures:
        print(f"bench_compare: {failure}", file=sys.stderr)
    if failures:
        print(f"bench_compare: {len(failures)} failure(s) across "
              f"{len(baselines)} artefact(s)", file=sys.stderr)
        return 1
    print(f"bench_compare: {len(baselines)} artefact(s) within "
          f"tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
