#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload serial-legacy [--seed 42]
        [--seconds 10] [--trace 0|1]

Run from the repository root. Builds perfbench/ (and the grp library
from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs grpbench. The last line of stdout is
the JSON result; build output and diagnostics go to stderr. Exits
non-zero, without a result, when the sources are missing, the build
fails or grpbench fails; failed job checks are reported in the result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "grpbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "grpbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no grp sources under {ROOT}/src; run from a checkout")
    binary = build(build_dir())

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    # GRP_* variables switch simulator paths (DRAM backend, interpreter,
    # profiling, forced tracing); the benchmark pins them all off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRP_")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"grpbench ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"grpbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("grpbench printed no JSON result")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail(f"metrics {sorted(result['metrics'])} do not match "
             f"BENCHMARK.json {sorted(expected)}")
    print("\n".join(lines[:-1]))
    print(f"  run took {time.monotonic() - start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
