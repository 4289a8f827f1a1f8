#!/usr/bin/env python3
"""Builds and runs the csmabw end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload clique_paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
library and the driver in Release mode under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only rebuild what changed.
Build output goes to stderr; stdout carries the driver's readable metric
lines and, as its last line, one JSON result object.  Exits non-zero,
without a result line, when the build or the run fails.

    python3 perfbench/run.py --regen-reference

recomputes every reference digest into perfbench/reference.txt.  Only do
that when a change is meant to alter the workloads' outputs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("clique_paper", "grid_lattice", "trace_serve")
SCALES = ("full", "tiny")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no csmabw sources next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def regen_reference(binary):
    lines = ["# scale workload seed_set op digest -- written by "
             "`python3 perfbench/run.py --regen-reference`"]
    work = os.path.join(build_dir(), "work-regen")
    for scale in SCALES:
        for workload in WORKLOADS:
            # The driver runs every seed set it knows in one call.
            cmd = [binary, "--workload", workload, "--scale", scale,
                   "--work-dir", work, "--digests"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            if done.returncode != 0:
                sys.exit("perfbench: digest run failed: " + " ".join(cmd))
            lines += done.stdout.splitlines()
            print(f"{scale} {workload}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference digest file (default: the committed one)")
    p.add_argument("--regen-reference", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.regen_reference:
        regen_reference(binary)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")

    work = os.path.join(build_dir(), f"work-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--reference", args.reference,
           "--work-dir", work]
    if args.trace:
        cmd += ["--prof", os.path.join(build_dir(),
                                       f"{args.workload}.perfetto.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: driver exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
