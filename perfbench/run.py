#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: alloc-churn, kv-update, kv-update-hp, postmark. The last line
of standard output is the JSON result; the line before it records
provenance and percentile sample counts. A traced run also writes its
spans to perfbench/out/. On a failed build, check or run this exits
non-zero and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alloc-churn", "kv-update", "kv-update-hp", "postmark")
BUILD_TIMEOUT_S = 840


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's output goes to stderr so stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in 1..60")

    binary = build()
    if binary is None:
        return 1
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--git-rev", git_rev(),
        "--kernel", os.uname().release,
    ]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.csv")]
    # A traced run measures two phases; set-up and checks add a few seconds.
    timeout_s = 60 + 3 * args.seconds
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print(f"perfbench: run failed with status {done.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
