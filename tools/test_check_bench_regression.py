#!/usr/bin/env python3
"""Tests for check_bench_regression.py's snapshot ordering.

Run: python3 tools/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def write_snapshot(root, stamp, items_per_second, mtime):
    path = os.path.join(root, f"BENCH_{stamp}.json")
    with open(path, "w") as f:
        json.dump({
            "context": {"build_type": "Release",
                        "library_build_type": "release"},
            "benchmarks": [{"name": "BM_SweepGrid/0/1",
                            "run_type": "iteration",
                            "items_per_second": items_per_second}],
        }, f)
    os.utime(path, (mtime, mtime))


class SnapshotOrder(unittest.TestCase):
    def gate(self, root):
        return subprocess.run([sys.executable, SCRIPT, root],
                              capture_output=True, text=True)

    def test_newer_by_name_is_gated_despite_older_mtime(self):
        # A fresh clone scrambles mtimes: here the later snapshot by
        # stamp carries the older mtime.  It halves throughput, so
        # gating it against the earlier one must fail.
        with tempfile.TemporaryDirectory() as root:
            write_snapshot(root, "20260101_000000", 200e6, mtime=2e9)
            write_snapshot(root, "20260102_000000", 100e6, mtime=1e9)
            res = self.gate(root)
            self.assertEqual(res.returncode, 1, res.stdout)
            self.assertIn("comparing BENCH_20260102_000000.json against "
                          "BENCH_20260101_000000.json", res.stdout)
            self.assertIn("REGRESSION", res.stdout)


if __name__ == "__main__":
    unittest.main()
