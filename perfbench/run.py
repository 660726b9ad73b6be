#!/usr/bin/env python3
"""Run one mfusim benchmark workload end to end.

    python3 perfbench/run.py --workload tables|serve_cold|serve_hot \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the mfusim library, the
`mfusim` CLI and the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build/), runs the workload, checks its
outputs, writes a result file stamped with provenance under
.bench_out/, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero when
any output is wrong or the run is invalid.

--trace 1 runs the separate traced run: per-layer metrics instead of
end-to-end ones, and a trace-event JSON file checked by
check_trace.py.  --write-golden records the tables workload's cell
digest as perfbench/golden/tables.json (do that only at a commit
whose outputs are known good).
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "tables.json")
WORKLOADS = ("tables", "serve_cold", "serve_hot")
# Every run must end within 180 s; leave room for the post-checks.
DRIVER_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 840

sys.path.insert(0, HERE)
import check_trace  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then an incremental build; returns the cache."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/mfusim_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError("not an mfusim checkout: missing " + needed)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    values = {}
    with open(cache) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                values[m.group(1)] = m.group(2)
    return out, values


def source_files():
    """The sources under src/, tools/ and perfbench/, sorted: the files
    git tracks there, or outside git every file but caches."""
    tops = ("src", "tools", "perfbench")
    try:
        listed = subprocess.run(["git", "ls-files", "-z", "--"] +
                                list(tops), cwd=ROOT, capture_output=True,
                                check=True).stdout.decode()
        files = [f for f in listed.split("\0") if f]
        if files:
            return sorted(files)
    except (OSError, subprocess.CalledProcessError):
        pass
    files = []
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            files += [os.path.relpath(os.path.join(dirpath, name), ROOT)
                      for name in filenames if not name.endswith(".pyc")]
    return sorted(files)


def provenance(cache, seed):
    """Who produced a result: code, build, host, seed."""
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True,
                               check=True).stdout.strip()
        if dirty:
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        pass
    # Identifies the code under test even outside a git checkout.
    digest = hashlib.sha256()
    for rel in source_files():
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": build_type,
        "cxx_compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
            "-Wall -Wextra"])),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def table_digest(cells_path):
    """Per table: cell count, summed instructions/cycles, sha256."""
    tables = {}
    with open(cells_path) as f:
        for line in f:
            table = line.split(" ", 1)[0]
            t = tables.setdefault(table, {"cells": 0, "instructions": 0,
                                          "cycles": 0,
                                          "_h": hashlib.sha256()})
            t["cells"] += 1
            t["_h"].update(line.encode())
            if table != "T2":
                fields = line.split()
                t["instructions"] += int(fields[-2])
                t["cycles"] += int(fields[-1])
    for t in tables.values():
        t["sha256"] = t.pop("_h").hexdigest()
    return tables


def check_golden(cells_path, write):
    digest = table_digest(cells_path)
    if write:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as f:
            json.dump({"schema": "mfusim-perfbench-golden-v1",
                       "what": "per-cell (instructions, cycles) of the "
                               "tables grid, digested per paper table",
                       "tables": digest}, f, indent=2, sort_keys=True)
            f.write("\n")
        return []
    with open(GOLDEN) as f:
        golden = json.load(f)["tables"]
    problems = []
    for name in sorted(set(golden) | set(digest)):
        if golden.get(name) != digest.get(name):
            problems.append("%s differs from the golden digest: got %s, "
                            "want %s" % (name, digest.get(name),
                                         golden.get(name)))
    return problems


def contract_problems(metrics, trace):
    """The mode's metrics must be exactly those BENCHMARK.json names."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got == want:
        return []
    return ["metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatches %s" % (
                sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(n for n in set(want) & set(got)
                       if want[n] != got[n]))]


def run_driver(binary, args):
    """Run the driver in its own process group (daemons included)."""
    proc = subprocess.Popen(binary + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        # Whatever the driver left behind (it reaps its daemons itself).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise RuntimeError("driver exited %d without a result"
                           % proc.returncode)
    return lines[:-1], result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    opt = ap.parse_args()

    try:
        out, cache = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    # Write back what the build left dirty, so its I/O does not land
    # in the timed window.
    os.sync()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S.%fZ")
    stem = "%s_%s_seed%d_trace%d" % (stamp, opt.workload, opt.seed,
                                     opt.trace)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", repr(opt.seconds), "--trace", str(opt.trace),
            "--mfusim", os.path.join(out, "tools", "mfusim"),
            "--out-dir", out_dir, "--stem", stem]
    try:
        lines, result, code = run_driver(
            [os.path.join(out, "perfbench_driver")], args)
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    problems = list(result["problems"])
    problems += contract_problems(result["metrics"], opt.trace)
    failed = result["failed"]
    attempted = max(1, result["attempted"])
    files = result["files"]
    if "cells" in files:
        golden_problems = check_golden(files["cells"], opt.write_golden)
        if golden_problems:
            failed = attempted
        problems += golden_problems
    if "trace" in files:
        problems += check_trace.check(files["trace"], result["metrics"])
    # Any failed operation makes the run incorrect, whatever the driver
    # concluded.
    if failed > 0 and not problems:
        problems.append("%d of %d operation(s) failed" % (failed, attempted))
    correct = result["correct"] and code == 0 and not problems

    record = {
        "schema": "mfusim-perfbench-result-v1",
        "workload": opt.workload,
        "trace": opt.trace,
        "seconds": opt.seconds,
        "provenance": provenance(cache, opt.seed),
        "params": result["params"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": result["metrics"],
        "informational": result["informational"],
        "properties": result["properties"],
        "files": files,
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")

    for line in lines:
        print(line)
    print("%-36s %14.6g %s" % ("error_rate", failed / attempted, "ratio"))
    for name, share in sorted(result["properties"].items()):
        print("%-36s %14.6g %s" % ("share:" + name, share, "ratio"))
    if result["params"].get("valid") == "no":
        log("perfbench: run marked invalid: the load generator fell behind "
            "its schedule, so its latencies are unusable")
    for p in problems:
        log("perfbench: problem: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
