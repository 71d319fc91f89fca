#!/usr/bin/env python3
"""tab01's peak memory at the paper's 1.5M-instruction window.

Usage: tests/sweep_memory.py TAB01_SUMMARY

Runs the tab01_summary binary at GRP_INSTRUCTIONS=1500000 with four
sweep threads and no other GRP_* setting, and fails when the child's
peak RSS exceeds 400 MB. The sweep recordings hold every kernel's op
stream for the whole grid, so peak RSS tracks the op-stream encoding:
packed op-codec blocks peak near 270 MB, and 32-byte ops per recorded
op peaked at 1162 MB.

ctest registers it as `sweep_memory` (label smoke) when Python 3 is
found and the build is not sanitized: sanitizer shadow memory
inflates RSS.
"""

import os
import resource
import subprocess
import sys
import tempfile

LIMIT_MB = 400


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: sweep_memory.py TAB01_SUMMARY")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRP_")}
    with tempfile.TemporaryDirectory() as out:
        env.update(GRP_INSTRUCTIONS="1500000", GRP_BENCH_THREADS="4",
                   GRP_BENCH_OUT=out)
        subprocess.run([sys.argv[1]], env=env, stdout=subprocess.DEVNULL,
                       check=True)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"sweep_memory: tab01_summary at 1.5M: peak RSS {peak_mb:.0f} MB")
    if peak_mb > LIMIT_MB:
        sys.exit(f"sweep_memory: peak RSS {peak_mb:.0f} MB exceeds the "
                 f"{LIMIT_MB} MB gate")


if __name__ == "__main__":
    main()
