#!/usr/bin/env python3
"""Host-time ratios between grpsim configurations.

Runs grpsim jobs at --host-prof-level 1 and reads each job's simLoop
time (the main cycle loop, set-up excluded) from --host-prof -. A
round runs every job of both sides of a ratio, the two sides taking
turns to go first from round to round, and sums each side's simLoop
time; the round's ratio is numerator over denominator. The tool prints
each ratio's median and quartiles over the rounds:

  scheme ratio  --schemes NUM/DEN (default srp/none) over mcf, swim,
                bzip2 and art on legacy DRAM at 2M instructions
  DRAM ratio    ddr4-2400/legacy over the serial-ddr4 jobs (those
                kernels x none, grp-var and grp-adaptive) at 1M

--window sets one window for both ratios. Every job warms up for a
quarter of its window, as perfbench's do. GRP_* variables are cleared
for the jobs. Exit status 2 means a bad argument (an unknown scheme is
refused before any job runs); 1 means a job failed.

  python3 tools/host_ratio.py --grpsim build/examples/grpsim
  python3 tools/host_ratio.py --grpsim build/examples/grpsim \\
      --rounds 2 --window 20000
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

KERNELS = ["mcf", "swim", "bzip2", "art"]
SCHEME_WINDOW = 2_000_000
DRAM_RATIO = ("ddr4-2400", "legacy")
DRAM_SCHEMES = ["none", "grp-var", "grp-adaptive"]
DRAM_WINDOW = 1_000_000


def fail(message, status=1):
    print(f"host_ratio: {message}", file=sys.stderr)
    sys.exit(status)


def grpsim_schemes(grpsim):
    """The schemes grpsim's usage lists."""
    try:
        usage = subprocess.run([grpsim, "--help"], capture_output=True,
                               text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"cannot run {grpsim} --help: {err}", 2)
    for line in usage.splitlines():
        if line.startswith("schemes:"):
            return line[len("schemes:"):].split()
    fail(f"{grpsim} --help lists no schemes", 2)


def scheme_pair(text, known):
    parts = text.split("/")
    if len(parts) != 2 or not all(parts):
        fail(f"scheme ratio {text!r} is not NUM/DEN", 2)
    for name in parts:
        if name not in known:
            fail(f"unknown scheme {name!r} (grpsim knows: "
                 f"{' '.join(known)})", 2)
    return parts


def sim_loop_nanos(grpsim, env, kernel, scheme, dram, window):
    cmd = [grpsim, "--workload", kernel, "--scheme", scheme,
           "--dram", dram, "--instructions", str(window),
           "--warmup", str(window // 4), "--host-prof", "-",
           "--host-prof-level", "1"]
    run = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if run.returncode != 0:
        fail(f"{' '.join(cmd)} exited {run.returncode}: "
             f"{run.stderr.strip().splitlines()[-1:]}")
    try:
        return int(json.loads(run.stdout)["phases"]["simLoop"]
                   ["totalNanos"])
    except (ValueError, KeyError, TypeError):
        fail(f"{' '.join(cmd)} printed no simLoop time")


def measure(grpsim, env, rounds, sides, jobs, window):
    """Per-round ratios of sides[0]'s summed simLoop time over
    sides[1]'s; each job maps a side to its (kernel, scheme, dram)."""
    ratios = []
    for r in range(rounds):
        order = sides if r % 2 else sides[::-1]
        total = {}
        for side in order:
            total[side] = sum(sim_loop_nanos(grpsim, env, *job(side),
                                             window)
                              for job in jobs)
        ratios.append(total[sides[0]] / total[sides[1]])
    return ratios


def summary(ratios):
    if len(ratios) == 1:
        q1 = med = q3 = ratios[0]
    else:
        q1, med, q3 = statistics.quantiles(ratios, n=4,
                                           method="inclusive")
    rounds = " ".join(f"{r:.3f}" for r in ratios)
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}] rounds {rounds}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--grpsim", required=True)
    # A round's jobs last tens of milliseconds, so on a shared host a
    # single round can read anywhere from 1.1 to 2.8 for srp/none;
    # 40 rounds bring the quartiles within about 0.15.
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--schemes", default="srp/none",
                        help="scheme ratio NUM/DEN (legacy DRAM)")
    parser.add_argument("--window", type=int,
                        help="one window for both ratios")
    args = parser.parse_args()
    if args.rounds < 1:
        fail("--rounds must be at least 1", 2)
    scheme_window, dram_window = SCHEME_WINDOW, DRAM_WINDOW
    if args.window is not None:
        if args.window < 4:
            fail("--window must be at least 4 instructions", 2)
        scheme_window = dram_window = args.window
    num, den = scheme_pair(args.schemes, grpsim_schemes(args.grpsim))

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GRP_")}
    print(f"host_ratio: grpsim simLoop time at --host-prof-level 1, "
          f"summed per round; median [q1, q3] over {args.rounds} "
          f"alternating rounds")

    scheme_jobs = [lambda side, k=k: (k, side, "legacy")
                   for k in KERNELS]
    ratios = measure(args.grpsim, env, args.rounds, (num, den),
                     scheme_jobs, scheme_window)
    print(f"{num}/{den} over {','.join(KERNELS)} at "
          f"{scheme_window}: {summary(ratios)}")

    dram_jobs = [lambda side, k=k, s=s: (k, s, side)
                 for k in KERNELS for s in DRAM_SCHEMES]
    ratios = measure(args.grpsim, env, args.rounds, DRAM_RATIO,
                     dram_jobs, dram_window)
    print(f"{'/'.join(DRAM_RATIO)} over {','.join(KERNELS)} x "
          f"{','.join(DRAM_SCHEMES)} at {dram_window}: "
          f"{summary(ratios)}")


if __name__ == "__main__":
    main()
