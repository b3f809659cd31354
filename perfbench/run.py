#!/usr/bin/env python3
"""Builds and runs the qpricer benchmark for one workload.

    python3 perfbench/run.py --workload NAME \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library, qpricerd and the qpbench program from source into .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only re-check the build. The
last line of stdout is the run's JSON result; the full report, and with
--trace 1 the raw spans, land in .bench_build/results/. NAME is
serve_churn or solve_mix.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("serve_churn", "solve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def provenance(root):
    sha = "unknown"  # a plain source checkout has no git metadata
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.split()
        if len(top) == 2 and pathlib.Path(top[0]).resolve() == root:
            sha = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    lines = 0
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            with open(path, "rb") as f:
                lines += sum(1 for _ in f)
    return sha, str(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "tools" / "qpricerd.cc").is_file():
        fail(f"no qpricer sources under {root} (need src/ and tools/)", 2)

    out_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = root / out_root
    build_dir = out_root / "perfbench"
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    sha, src_lines = provenance(root)
    cmd = [str(build_dir / "qpbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", str(build_dir / "qpricerd"),
           "--out-dir", str(results), "--git-sha", sha,
           "--src-lines", src_lines]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # qpbench's daemons die with it (parent-death signal).
        fail(f"qpbench exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        sys.stdout.write(proc.stdout)
        fail(f"qpbench printed no result (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
