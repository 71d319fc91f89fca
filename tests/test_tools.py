#!/usr/bin/env python3
"""The Python tools' contracts.

tools/perf_compare.py and tools/bench_manifest.py read JSON files
that come from outside the program. Each malformed input below must end the tool with exit
status 1 and one line naming the file, never a Python traceback; a
well-formed input must still pass. tools/host_ratio.py runs grpsim
(the binary named by the GRPSIM environment variable, which ctest
sets) and prints one line per ratio.

Run directly (python3 tests/test_tools.py) or through ctest.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

PROVENANCE = {"cpuModel": "test", "compiler": "test",
              "buildType": "Release", "benchThreads": "1"}
MANIFEST = {
    "schema": "grp-bench-manifest-v3",
    "provenance": PROVENANCE,
    "instructionsPerSecond": 1000.0,
    "benches": {"tab": {"instructionsPerSecond": 1000.0,
                        "hostPhases": {"Cpu": {"selfNanos": 5}}}},
}
SIDECAR = {
    "schema": "grp-bench-timing-v2",
    "bench": "tab",
    "threads": 1,
    "provenance": {"compiler": "test", "buildType": "Release"},
    "totalWallSeconds": 3.0,
    "simulatedInstructions": 1500,
    "instructionsPerSecond": 500.0,
    "jobs": [{"label": "mcf/none", "wallSeconds": 2.0,
              "instructions": 1000,
              "hostProf": {"phases": {"Cpu": {
                  "totalNanos": 9, "selfNanos": 5, "calls": 1}}}},
             {"label": "art/none", "wallSeconds": 1.0,
              "instructions": 500,
              "hostProf": {"phases": {"Cpu": {
                  "totalNanos": 4, "selfNanos": 3, "calls": 2}}}}],
}


def write(path, content):
    """Write content (bytes, or a value to encode as JSON)."""
    if not isinstance(content, bytes):
        content = json.dumps(content).encode()
    path.write_bytes(content)
    return path


class ToolCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def run_tool(self, tool, *args):
        return subprocess.run(
            [sys.executable, str(TOOLS / tool), *map(str, args)],
            capture_output=True, text=True, cwd=self.dir)

    def assert_rejected(self, result, path):
        """Exit 1, no traceback, and a line naming path."""
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        lines = [line for line in result.stderr.splitlines()
                 if str(path) in line]
        self.assertTrue(lines, result.stderr)


class PerfCompare(ToolCase):
    def compare(self, manifest, baseline=MANIFEST):
        self.base = write(self.dir / "base.json", baseline)
        self.new = write(self.dir / "m.json", manifest)
        return self.run_tool("perf_compare.py", "--baseline", self.base,
                             "--manifest", self.new)

    def test_well_formed_pair_passes(self):
        result = self.compare(MANIFEST)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_manifest_that_is_a_list(self):
        self.assert_rejected(self.compare([]), self.new)

    def test_baseline_that_is_a_list(self):
        self.assert_rejected(self.compare(MANIFEST, []), self.base)

    def test_figure_that_is_a_string(self):
        for manifest in (
                dict(MANIFEST, instructionsPerSecond="fast"),
                dict(MANIFEST,
                     benches={"tab": {"instructionsPerSecond": "fast"}})):
            result = self.compare(manifest)
            self.assert_rejected(result, self.new)
            self.assertIn("instructionsPerSecond", result.stderr)

    def test_bench_that_is_not_an_object(self):
        self.assert_rejected(
            self.compare(dict(MANIFEST, benches={"tab": 3})), self.new)

    def test_host_phases_without_numeric_self_time(self):
        manifest = dict(MANIFEST, benches={"tab": {
            "instructionsPerSecond": 1.0,
            "hostPhases": {"Cpu": {"selfNanos": "x"}}}})
        self.assert_rejected(self.compare(manifest), self.new)

    def test_manifest_that_is_not_utf8(self):
        self.assert_rejected(self.compare(b'{"a": "\xff"}'), self.new)

    def test_median_of_three_runs_passes_past_one_outlier(self):
        def run(ips):
            return dict(MANIFEST, instructionsPerSecond=ips, benches={
                "tab": {"instructionsPerSecond": ips,
                        "hostPhases": {"Cpu": {"selfNanos": 5}}}})
        base = write(self.dir / "base.json", MANIFEST)
        paths = [write(self.dir / f"m{i}.json", run(ips))
                 for i, ips in enumerate((990.0, 500.0, 1010.0))]
        # The outlier alone trips the 15% gate...
        alone = self.run_tool("perf_compare.py", "--baseline", base,
                              "--manifest", paths[1])
        self.assertEqual(alone.returncode, 1, alone.stdout)
        self.assertIn("REGRESSION", alone.stdout)
        # ...the median of the three (990) passes...
        args = [a for p in paths for a in ("--manifest", p)]
        median = self.run_tool("perf_compare.py", "--baseline", base,
                               *args)
        self.assertEqual(median.returncode, 0, median.stderr)
        self.assertNotIn("REGRESSION", median.stdout)
        # ...and --update writes that median.
        updated = self.dir / "updated.json"
        result = self.run_tool("perf_compare.py", "--baseline", updated,
                               "--update", *args)
        self.assertEqual(result.returncode, 0, result.stderr)
        written = json.loads(updated.read_text())
        self.assertEqual(written["instructionsPerSecond"], 990.0)
        self.assertEqual(
            written["benches"]["tab"]["instructionsPerSecond"], 990.0)
        self.assertEqual(written["medianOfRuns"], 3)

    def test_one_malformed_run_among_several(self):
        base = write(self.dir / "base.json", MANIFEST)
        good = write(self.dir / "good.json", MANIFEST)
        bad = write(self.dir / "bad.json", [])
        result = self.run_tool("perf_compare.py", "--baseline", base,
                               "--manifest", good, "--manifest", bad)
        self.assert_rejected(result, bad)

    def test_missing_manifest(self):
        result = self.run_tool("perf_compare.py", "--baseline",
                               write(self.dir / "base.json", MANIFEST),
                               "--manifest", self.dir / "none.json")
        self.assert_rejected(result, self.dir / "none.json")


class BenchManifest(ToolCase):
    def finish(self, sidecar):
        out = self.dir / "out"
        (out / "timings").mkdir(parents=True)
        self.sidecar = write(out / "timings" / "tab.json", sidecar)
        self.manifest = out / "manifest.json"
        return self.run_tool("bench_manifest.py", "finish", "--out", out,
                             "--repo", self.dir)

    def assert_sidecar_rejected(self, result, field):
        """One line naming the sidecar and the field; no manifest."""
        self.assert_rejected(result, self.sidecar)
        self.assertEqual(len(result.stderr.splitlines()), 1,
                         result.stderr)
        self.assertTrue(result.stderr.startswith(
            f"bench_manifest.py: {self.sidecar}: {field}: "),
            result.stderr)
        self.assertFalse(self.manifest.exists())

    def test_well_formed_sidecar_yields_a_manifest(self):
        result = self.finish(SIDECAR)
        self.assertEqual(result.returncode, 0, result.stderr)
        manifest = json.loads(self.manifest.read_text())
        self.assertEqual(manifest["simulatedInstructions"], 1500)
        bench = manifest["benches"]["tab"]
        # Per-job records stay in the sidecar; the manifest keeps only
        # the per-bench aggregates, host phases summed over the jobs.
        self.assertNotIn("jobs", bench)
        self.assertEqual(bench["hostPhases"]["Cpu"],
                         {"totalNanos": 13, "selfNanos": 8, "calls": 3})

    def test_sidecar_that_is_not_json(self):
        self.assert_sidecar_rejected(self.finish(b"{"), "<root>")

    def test_sidecar_that_is_a_list(self):
        self.assert_sidecar_rejected(self.finish([SIDECAR]), "<root>")

    def test_self_time_that_is_a_string(self):
        job = dict(SIDECAR["jobs"][0],
                   hostProf={"phases": {"Cpu": {"selfNanos": "5"}}})
        self.assert_sidecar_rejected(
            self.finish(dict(SIDECAR, jobs=[job])),
            "jobs[0].hostProf.phases.Cpu.selfNanos")

    def test_instruction_count_that_is_a_string(self):
        self.assert_sidecar_rejected(
            self.finish(dict(SIDECAR, simulatedInstructions="1000")),
            "simulatedInstructions")


@unittest.skipUnless(os.environ.get("GRPSIM"),
                     "GRPSIM names no grpsim binary (ctest sets it)")
class HostRatio(unittest.TestCase):
    RATIO = r"{} over {} at 20000: \d+\.\d{{3}} " \
            r"\[\d+\.\d{{3}}, \d+\.\d{{3}}\] rounds " \
            r"\d+\.\d{{3}} \d+\.\d{{3}}"

    def host_ratio(self, *args):
        return subprocess.run(
            [sys.executable, str(TOOLS / "host_ratio.py"),
             "--grpsim", os.environ["GRPSIM"], *args],
            capture_output=True, text=True)

    def test_two_rounds_print_both_ratios(self):
        run = self.host_ratio("--window", "20000", "--rounds", "2")
        self.assertEqual(run.returncode, 0, run.stderr)
        lines = run.stdout.splitlines()
        self.assertEqual(len(lines), 3, run.stdout)
        self.assertIn("over 2 alternating rounds", lines[0])
        self.assertRegex(lines[1], self.RATIO.format(
            "srp/none", re.escape("mcf,swim,bzip2,art")))
        self.assertRegex(lines[2], self.RATIO.format(
            "ddr4-2400/legacy", re.escape(
                "mcf,swim,bzip2,art x none,grp-var,grp-adaptive")))

    def test_unknown_scheme_is_refused(self):
        run = self.host_ratio("--window", "20000", "--rounds", "2",
                              "--schemes", "srp/nosuch")
        self.assertEqual(run.returncode, 2)
        self.assertEqual(run.stdout, "")
        self.assertEqual(len(run.stderr.splitlines()), 1, run.stderr)
        self.assertIn("unknown scheme 'nosuch'", run.stderr)


if __name__ == "__main__":
    unittest.main()
