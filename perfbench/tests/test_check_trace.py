"""Tests for check_trace.py.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import check_trace  # noqa: E402


def event(sid, parent, start, end, layer, name=None, track=0):
    return {"name": name or layer, "cat": layer, "ph": "X",
            "ts": start / 1e3, "dur": (end - start) / 1e3, "pid": 1,
            "tid": track,
            "args": {"id": sid, "parent": parent, "start_ns": start,
                     "end_ns": end, "ref": ""}}


def sound_trace():
    """run [0,100): setup(driver) [0,30) > codegen [5,25);
    window(serve) [30,90) > request spans on track 1; sim [90,98)."""
    events = [
        event(0, -1, 0, 100, "driver", "run"),
        event(1, 0, 0, 30, "driver", "setup"),
        event(2, 1, 5, 25, "codegen"),
        event(3, 0, 30, 90, "serve"),
        event(4, 3, 31, 60, "request", track=1),
        event(5, 3, 40, 89, "request", track=2),
        event(6, 0, 90, 98, "sim"),
    ]
    # driver: run 100-30-60-8=2, setup 30-20=10 -> 12
    return {"traceEvents": events,
            "otherData": {"workload": "t", "wall_ns": 100,
                          "self_ns": {"driver": 12, "codegen": 20,
                                      "serve": 60, "sim": 8}}}


class CheckTraceTest(unittest.TestCase):

    def check(self, doc, metrics=None):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
        try:
            return check_trace.check(f.name, metrics)
        finally:
            os.unlink(f.name)

    def test_sound_trace_passes(self):
        self.assertEqual(self.check(sound_trace()), [])

    def test_metrics_must_match_the_split(self):
        metrics = {"split.wall_ms": {"value": 100 / 1e6},
                   "split.unattributed_ms": {"value": 12 / 1e6},
                   "split.codegen_ms": {"value": 20 / 1e6},
                   "split.serve_ms": {"value": 60 / 1e6},
                   "split.sim_ms": {"value": 8 / 1e6}}
        self.assertEqual(self.check(sound_trace(), metrics), [])
        metrics["split.sim_ms"] = {"value": 1.0}
        self.assertTrue(self.check(sound_trace(), metrics))

    def test_unclosed_span_fails(self):
        doc = sound_trace()
        doc["traceEvents"][6]["args"]["end_ns"] = -1
        problems = self.check(doc)
        self.assertTrue(any("not closed" in p for p in problems))

    def test_child_outside_parent_fails(self):
        doc = sound_trace()
        doc["traceEvents"][4]["args"]["start_ns"] = 20   # before window
        problems = self.check(doc)
        self.assertTrue(any("outside its parent" in p for p in problems))

    def test_overlapping_siblings_fail(self):
        doc = sound_trace()
        doc["traceEvents"][6]["args"]["start_ns"] = 85   # into window
        problems = self.check(doc)
        self.assertTrue(any("overlap" in p for p in problems))

    def test_reported_split_must_equal_the_spans(self):
        doc = sound_trace()
        doc["otherData"]["self_ns"]["sim"] = 9
        problems = self.check(doc)
        self.assertTrue(any("layer sim" in p for p in problems))

    def test_missing_parent_and_second_root_fail(self):
        doc = sound_trace()
        doc["traceEvents"][2]["args"]["parent"] = 42
        self.assertTrue(any("missing parent" in p
                            for p in self.check(doc)))
        doc = sound_trace()
        doc["traceEvents"].append(event(7, -1, 0, 5, "driver", "root2"))
        self.assertTrue(any("one root" in p for p in self.check(doc)))

    def test_unknown_layer_fails(self):
        doc = sound_trace()
        doc["traceEvents"][6]["cat"] = "gpu"
        doc["otherData"]["self_ns"] = {"driver": 12, "codegen": 20,
                                       "serve": 60, "gpu": 8}
        problems = self.check(doc)
        self.assertTrue(any("unknown layer" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
