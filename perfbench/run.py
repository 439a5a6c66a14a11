#!/usr/bin/env python3
"""End-to-end host-performance benchmark of the EMC simulator.

Builds perfbench/ (which compiles the simulator libraries from src/) in
Release mode under .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload mcf-emc --seed 1 --seconds 36 --trace 0

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. METRICS.md documents them.

    python3 perfbench/run.py --smoke

runs every workload at a tiny length in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit and a finite
value.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark; raise on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(logfile, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise RuntimeError("cmake configure failed; see " + logfile)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise RuntimeError("build failed; see " + logfile)


def git_sha():
    # Only ask git about this tree itself, never an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def src_hash():
    """SHA-256 over the simulator sources, standing in for a git sha."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha(), "--src-hash", src_hash()]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    """Check every BENCHMARK.json metric appears, with unit, finite."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_binary(wl["name"], 1, 1, trace, smoke=True)
            if code != 0 or not lines:
                problems.append("%s trace %d: exit %d" %
                                (wl["name"], trace, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: not correct" %
                                (wl["name"], trace))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" %
                                    (wl["name"], m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, want %s" %
                                    (wl["name"], m["name"], got["unit"],
                                     m["unit"]))
                elif not isinstance(got["value"], (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append("%s: %s not finite" %
                                    (wl["name"], m["name"]))
    for p in problems:
        log("smoke: " + p)
    log("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        build()
    except RuntimeError as e:
        log(str(e))
        return 1
    if args.smoke:
        return smoke()
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    if code != 0:
        log("benchmark exited with code %d" % code)
    return code


if __name__ == "__main__":
    sys.exit(main())
