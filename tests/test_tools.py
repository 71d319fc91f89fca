#!/usr/bin/env python3
"""The Python manifest readers' error contract.

tools/perf_compare.py, tools/bench_compare.py and
tools/bench_manifest.py read JSON files that come from outside the
program. Each malformed input below must end the tool with exit
status 1 and one line naming the file, never a Python traceback; a
well-formed input must still pass.

Run directly (python3 tests/test_tools.py) or through ctest.
"""

import json
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
ARTEFACT = {"schema": "grp-bench-v1", "rows": [{"speedup": 1.25}]}
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

    def test_missing_manifest(self):
        result = self.run_tool("perf_compare.py", "--baseline",
                               write(self.dir / "base.json", MANIFEST),
                               "--manifest", self.dir / "none.json")
        self.assert_rejected(result, self.dir / "none.json")


class BenchCompare(ToolCase):
    def compare(self, artefact=ARTEFACT, manifest=MANIFEST):
        base_dir = self.dir / "base"
        out_dir = self.dir / "out"
        base_dir.mkdir()
        out_dir.mkdir()
        write(base_dir / "tab.json", ARTEFACT)
        write(base_dir / "manifest.json", MANIFEST)
        self.artefact = write(out_dir / "tab.json", artefact)
        self.manifest = write(out_dir / "manifest.json", manifest)
        return self.run_tool("bench_compare.py", "--baseline", base_dir,
                             "--out", out_dir)

    def test_well_formed_pair_passes(self):
        result = self.compare()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_manifest_that_is_a_list(self):
        self.assert_rejected(self.compare(manifest=[]), self.manifest)

    def test_provenance_that_is_not_an_object(self):
        result = self.compare(manifest=dict(MANIFEST, provenance=[1]))
        self.assert_rejected(result, self.manifest)

    def test_artefact_that_is_not_utf8(self):
        self.assert_rejected(self.compare(artefact=b'{"a": "\xff"}'),
                             self.artefact)

    def test_artefact_that_is_not_json(self):
        self.assert_rejected(self.compare(artefact=b"{"), self.artefact)

    def test_mismatch_names_the_artefact(self):
        result = self.compare(
            artefact={"schema": "grp-bench-v1", "rows": [{"speedup": 2}]})
        self.assert_rejected(result, self.artefact)
        self.assertIn("rows[0].speedup", result.stderr)


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


if __name__ == "__main__":
    unittest.main()
