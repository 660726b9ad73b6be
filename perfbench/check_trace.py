#!/usr/bin/env python3
"""Check a traced run's trace-event JSON.

    python3 perfbench/check_trace.py TRACE.json

Verifies that
  - every span is closed (an open span is written with end -1);
  - span ids are unique, each parent exists, and there is exactly one
    root (track 0, no parent);
  - every child lies inside its parent, on any track;
  - spans on track 0 nest strictly (siblings do not overlap) and each
    names one of the layers;
  - per-layer self times (a span's duration minus its track-0
    children's) plus the unattributed remainder (the "driver" layer)
    equal the root's duration exactly, and equal the split the run
    reported in otherData;
  - when given the run's metrics, split.<layer>_ms and split.wall_ms
    agree with the spans.

Times are exact integer nanoseconds from each event's args.
"""

import json
import sys

LAYERS = {"codegen", "core", "dataflow", "sim", "harness", "serve",
          "driver"}


def check(path, metrics=None):
    """Return a list of problems (empty when the trace is sound)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["trace unreadable: %s" % e]
    events = doc.get("traceEvents")
    other = doc.get("otherData", {})
    if not isinstance(events, list) or not events:
        return ["trace has no events"]

    problems = []
    spans = {}
    for ev in events:
        a = ev.get("args", {})
        sid = a.get("id")
        if ev.get("ph") != "X" or sid is None:
            problems.append("malformed event: %r" % (ev,))
            continue
        if sid in spans:
            problems.append("duplicate span id %s" % sid)
        start, end = a.get("start_ns"), a.get("end_ns")
        if not isinstance(start, int) or not isinstance(end, int):
            problems.append("span %s lacks integer times" % sid)
            continue
        if end < start:
            problems.append("span %s (%s) is not closed"
                            % (sid, ev.get("name")))
        spans[sid] = {"name": ev.get("name"), "layer": ev.get("cat"),
                      "track": ev.get("tid"), "parent": a.get("parent"),
                      "start": start, "end": end}
    if problems:
        return problems

    roots = [s for s in spans.values()
             if s["parent"] == -1 and s["track"] == 0]
    if len(roots) != 1:
        return ["expected one root span, found %d" % len(roots)]
    root = roots[0]

    children = {}
    for sid, s in spans.items():
        if s["parent"] == -1:
            if s is not root:
                problems.append("span %s (%s) has no parent"
                                % (sid, s["name"]))
            continue
        parent = spans.get(s["parent"])
        if parent is None:
            problems.append("span %s (%s) names a missing parent %s"
                            % (sid, s["name"], s["parent"]))
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append("span %s (%s) lies outside its parent %s (%s)"
                            % (sid, s["name"], s["parent"],
                               parent["name"]))
        if s["track"] == 0:
            if s["layer"] not in LAYERS:
                problems.append("span %s (%s) has unknown layer %r"
                                % (sid, s["name"], s["layer"]))
            if parent["track"] != 0:
                problems.append("track-0 span %s under a request span"
                                % sid)
            children.setdefault(s["parent"], []).append(s)

    self_ns = {}
    for sid, s in spans.items():
        if s["track"] != 0:
            continue
        kids = sorted(children.get(sid, []), key=lambda k: k["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append("track-0 siblings %s and %s overlap"
                                % (a["name"], b["name"]))
        covered = sum(k["end"] - k["start"] for k in kids)
        self_ns[s["layer"]] = (self_ns.get(s["layer"], 0)
                               + s["end"] - s["start"] - covered)

    wall = root["end"] - root["start"]
    if sum(self_ns.values()) != wall:
        problems.append("layer self times sum to %d ns, wall is %d ns"
                        % (sum(self_ns.values()), wall))
    if other.get("wall_ns") != wall:
        problems.append("reported wall %s ns, spans give %d ns"
                        % (other.get("wall_ns"), wall))
    reported = other.get("self_ns", {})
    for layer in set(reported) | set(self_ns):
        if reported.get(layer, 0) != self_ns.get(layer, 0):
            problems.append("layer %s: reported %s ns self time, spans "
                            "give %d ns" % (layer, reported.get(layer),
                                            self_ns.get(layer, 0)))

    if metrics is not None:
        want = {"split.wall_ms": wall / 1e6}
        for layer, ns in self_ns.items():
            name = "unattributed" if layer == "driver" else layer
            want["split.%s_ms" % name] = ns / 1e6
        for name, value in want.items():
            got = metrics.get(name, {}).get("value")
            if got is None or abs(got - value) > 1e-6 * max(1.0, value):
                problems.append("metric %s is %s, spans give %s"
                                % (name, got, value))
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = check(argv[1])
    for p in problems:
        print("check_trace: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
