#!/usr/bin/env python3
"""The Python manifest readers' error contract.

tools/perf_compare.py and tools/bench_compare.py read JSON files that
come from outside the program. Each malformed input below must end
the tool with exit status 1 and one line naming the file, never a
Python traceback; a well-formed pair must still pass.

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


if __name__ == "__main__":
    unittest.main()
