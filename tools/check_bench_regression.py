#!/usr/bin/env python3
"""Compare the two newest BENCH_*.json snapshots in the repo root.

For every benchmark present in both, the newer items_per_second must
be within --tolerance (default 15%) of the older one, or better.
Snapshots from different build types are never compared (a debug
snapshot would read as a catastrophic regression).  With fewer than
two comparable snapshots there is nothing to gate: exit 0 with a
note, so fresh clones and CI bootstrap runs pass.

The newest snapshot must additionally carry
context.library_build_type == "release": tools/run_bench.sh stamps
that key from the app's CMake build type (Release/RelWithDebInfo),
and a snapshot without it — or marked "debug" — came from an
unoptimized build and is rejected outright (exit 1), not silently
compared.

Snapshots are ordered by the BENCH_YYYYMMDD_HHMMSS stamp in their
file names (tools/run_bench.sh writes it), not by file mtime, which a
fresh clone does not preserve.

Usage: tools/check_bench_regression.py [--tolerance 0.15] [repo-root]
"""

import argparse
import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    benches = {
        b["name"]: b["items_per_second"]
        for b in data.get("benchmarks", [])
        if "items_per_second" in b and b.get("run_type") != "aggregate"
    }
    context = data.get("context", {})
    # context.self_profile (run_bench.sh's phase wall times) is
    # informational: printed when present in both snapshots, never
    # gated — wall times on shared CI machines are too noisy.
    return (context.get("build_type", "unknown"), benches,
            context.get("self_profile", {}),
            context.get("library_build_type", "unknown"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: script's parent dir)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    # The fixed-width BENCH_YYYYMMDD_HHMMSS stamp makes name order
    # time order; mtime is not (a fresh clone resets it).
    snapshots = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not snapshots:
        print("check_bench_regression: no snapshots in repo root — "
              "nothing to gate")
        return 0

    new_path = snapshots[-1]
    new_type, new, new_profile, new_lib = load(new_path)
    if new_lib != "release":
        print(f"check_bench_regression: {os.path.basename(new_path)} "
              f"has library_build_type={new_lib!r}; snapshots must "
              "come from a Release build (tools/run_bench.sh refuses "
              "debug builds and stamps this key) — REJECTED")
        return 1

    if len(snapshots) < 2:
        print(f"check_bench_regression: {len(snapshots)} snapshot(s) "
              "in repo root; need two to compare — nothing to gate")
        return 0

    old_path = snapshots[-2]
    old_type, old, old_profile, _old_lib = load(old_path)
    if old_type != new_type:
        print(f"check_bench_regression: build types differ "
              f"({os.path.basename(old_path)}={old_type}, "
              f"{os.path.basename(new_path)}={new_type}) — skipping")
        return 0

    shared = sorted(set(old) & set(new))
    if not shared:
        print("check_bench_regression: no shared benchmarks — skipping")
        return 0

    print(f"comparing {os.path.basename(new_path)} against "
          f"{os.path.basename(old_path)} "
          f"(tolerance -{args.tolerance:.0%})")
    failures = 0
    for name in shared:
        ratio = new[name] / old[name]
        flag = ""
        if ratio < 1.0 - args.tolerance:
            flag = "  <-- REGRESSION"
            failures += 1
        print(f"  {name:45s} {old[name] / 1e6:9.2f} -> "
              f"{new[name] / 1e6:9.2f} M items/s  ({ratio:6.2f}x){flag}")

    for phase in sorted(set(old_profile) & set(new_profile)):
        print(f"  self-profile {phase:32s} "
              f"{old_profile[phase] * 1e3:9.2f} -> "
              f"{new_profile[phase] * 1e3:9.2f} ms  (informational)")

    if failures:
        print(f"{failures} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
