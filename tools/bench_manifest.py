#!/usr/bin/env python3
"""Stamp a bench run with its provenance.

Usage:
    tools/bench_manifest.py start  --out bench/out
    tools/bench_manifest.py finish --out bench/out [--repo .]

`start` records the wall clock before the first bench binary runs;
`finish` writes bench/out/manifest.json describing the whole run:
the git SHA the artefacts were produced from (plus a dirty flag), a
hash of the simulator configuration header (so a config change that
silently shifts every baseline is visible in the artefact trail),
the GRP_INSTRUCTIONS override in effect, and the run's wall-clock
duration. Each bench binary also drops a timing sidecar into
bench/out/timings/<bench>.json (threads used, per-job wall clock,
simulated instructions per second, and — when GRP_HOST_PROF >= 1 —
per-job host-phase breakdowns); `finish` folds each sidecar's
per-bench aggregates into the manifest under "benches" and sums them
into aggregate throughput figures. The per-job records stay in the
sidecars. v3 adds host provenance (CPU model, compiler, build type
and flags, thread count) so perf_compare.py can tell a regression
from a machine change, plus per-bench "hostPhases" sums of the
job-level host profiles. The manifest and the sidecars have no
baselines (timing is machine-dependent by nature); perf_compare.py
gates on the manifest's inst/s figures and diffs any two manifests.

The manifest is published atomically (tmp + rename), matching the
simulator's own JSON exporters. A sidecar that is unreadable, not
JSON, or has a field of the wrong type ends `finish` with exit status
1 and one line naming the file, the field and the problem; no
manifest is written.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

STAMP_NAME = ".bench_started"
MANIFEST_NAME = "manifest.json"
PHASE_KEYS = ("totalNanos", "selfNanos", "calls")


def git(repo, *args):
    try:
        return subprocess.run(
            ["git", "-C", str(repo), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cmd_start(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / STAMP_NAME).write_text(f"{time.time():.3f}\n")
    return 0


def cpu_model():
    """First 'model name' line from /proc/cpuinfo (None elsewhere)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def aggregate_host_phases(jobs):
    """Sum the per-job hostProf phase tables into one bench-level
    table (None when no job carried a profile)."""
    phases = {}
    for job in jobs:
        prof = job.get("hostProf") or {}
        for name, totals in (prof.get("phases") or {}).items():
            agg = phases.setdefault(name, dict.fromkeys(PHASE_KEYS, 0))
            for key in agg:
                agg[key] += totals.get(key, 0)
    return phases or None


class SidecarError(Exception):
    """A timing sidecar finish cannot use: (path, field, problem)."""


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def sidecar_problem(data):
    """(field, problem) for the first field of a sidecar that finish
    reads and cannot use, or None when every such field is usable."""
    if not isinstance(data, dict):
        return "<root>", "not a JSON object"
    if not isinstance(data.get("bench", ""), str):
        return "bench", "not a string"
    if not isinstance(data.get("provenance", {}), dict):
        return "provenance", "not a JSON object"
    for key in ("threads", "totalWallSeconds", "simulatedInstructions",
                "instructionsPerSecond"):
        value = data.get(key)
        if value is not None and not is_number(value):
            return key, f"{value!r} is not a number"
    jobs = data.get("jobs", [])
    if not isinstance(jobs, list):
        return "jobs", "not a JSON list"
    for i, job in enumerate(jobs):
        field = f"jobs[{i}]"
        if not isinstance(job, dict):
            return field, "not a JSON object"
        prof = job.get("hostProf") or {}
        if not isinstance(prof, dict):
            return f"{field}.hostProf", "not a JSON object"
        phases = prof.get("phases") or {}
        if not isinstance(phases, dict):
            return f"{field}.hostProf.phases", "not a JSON object"
        for name, totals in phases.items():
            where = f"{field}.hostProf.phases.{name}"
            if not isinstance(totals, dict):
                return where, "not a JSON object"
            for key in PHASE_KEYS:
                value = totals.get(key, 0)
                if not is_number(value):
                    return f"{where}.{key}", f"{value!r} is not a number"
    return None


def load_timings(out_dir):
    """Collect the per-bench timing sidecars the bench binaries wrote
    to out/timings/, keyed by bench name. Raises SidecarError on the
    first sidecar that cannot be used."""
    timings = {}
    timing_dir = out_dir / "timings"
    if not timing_dir.is_dir():
        return timings
    for path in sorted(timing_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as err:
            raise SidecarError(path, "<root>",
                               f"cannot read: {err.strerror}") from err
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise SidecarError(path, "<root>",
                               f"not UTF-8 JSON: {err}") from err
        found = sidecar_problem(data)
        if found is not None:
            raise SidecarError(path, *found)
        entry = {
            "threads": data.get("threads"),
            "wallSeconds": data.get("totalWallSeconds"),
            "simulatedInstructions": data.get(
                "simulatedInstructions"),
            "instructionsPerSecond": data.get(
                "instructionsPerSecond"),
        }
        if "provenance" in data:
            entry["provenance"] = data["provenance"]
        host_phases = aggregate_host_phases(data.get("jobs", []))
        if host_phases:
            entry["hostPhases"] = host_phases
        timings[data.get("bench", path.stem)] = entry
    return timings


def run_provenance(timings):
    """Host provenance for the manifest: the machine (CPU model,
    thread env) plus the build identity the sidecars recorded. Mixed
    sidecar provenance (a stale timings/ dir) is surfaced rather
    than silently picking one."""
    builds = []
    for t in timings.values():
        build = t.get("provenance")
        if build and build not in builds:
            builds.append(build)
    provenance = {
        "cpuModel": cpu_model(),
        "benchThreads": os.environ.get("GRP_BENCH_THREADS"),
        "hostProf": os.environ.get("GRP_HOST_PROF"),
        # Live telemetry multiplexing, when it was on for this run:
        # pulse beats cost (a little) host time, so a manifest that
        # recorded GRP_PULSE explains a slightly slower inst/s figure
        # the same way hostProf does.
        "pulse": os.environ.get("GRP_PULSE"),
    }
    if len(builds) == 1:
        provenance.update(builds[0])
    elif builds:
        provenance["mixedBuilds"] = builds
    return provenance


def cmd_finish(out_dir, repo):
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        timings = load_timings(out_dir)
    except SidecarError as err:
        path, field, problem = err.args
        print(f"bench_manifest.py: {path}: {field}: {problem}",
              file=sys.stderr)
        return 1

    stamp = out_dir / STAMP_NAME
    wall = None
    if stamp.is_file():
        try:
            wall = round(time.time() - float(stamp.read_text()), 3)
        except ValueError:
            pass
        stamp.unlink(missing_ok=True)

    config = repo / "src" / "sim" / "config.hh"
    config_hash = (
        hashlib.sha256(config.read_bytes()).hexdigest()
        if config.is_file() else None
    )

    total_instructions = sum(
        t["simulatedInstructions"] or 0 for t in timings.values())
    bench_wall = sum(
        t["wallSeconds"] or 0.0 for t in timings.values())

    manifest = {
        "schema": "grp-bench-manifest-v3",
        "gitSha": git(repo, "rev-parse", "HEAD"),
        "gitDirty": bool(git(repo, "status", "--porcelain")),
        "configHash": config_hash,
        "provenance": run_provenance(timings),
        "grpInstructions": os.environ.get("GRP_INSTRUCTIONS"),
        "benchThreads": os.environ.get("GRP_BENCH_THREADS"),
        "wallClockSeconds": wall,
        "benchWallSeconds": round(bench_wall, 3) or None,
        "simulatedInstructions": total_instructions or None,
        "instructionsPerSecond": (
            round(total_instructions / bench_wall, 1)
            if bench_wall > 0 else None
        ),
        "finishedAtUnix": round(time.time(), 3),
        "benches": timings,
    }

    tmp = out_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(out_dir / MANIFEST_NAME)
    print(f"bench manifest: {out_dir / MANIFEST_NAME}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["start", "finish"])
    parser.add_argument("--out", default="bench/out", type=Path)
    parser.add_argument("--repo", default=".", type=Path)
    args = parser.parse_args()
    if args.command == "start":
        return cmd_start(args.out)
    return cmd_finish(args.out, args.repo)


if __name__ == "__main__":
    sys.exit(main())
