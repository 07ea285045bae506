#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in its own process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

The benchmark binary (the `perfbench/` cargo package) is built into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). It prints a
run stamp line and then, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero if any operation failed, the build failed or the run timed out.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["design", "synth", "sim_step", "sim_skip"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd to completion; on timeout kills it and waits for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        sys.exit(3)
    return proc.returncode, out


def probe(cmd, cwd, env=None):
    """First line of a helper command's output, or 'unknown'."""
    try:
        r = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = r.stdout.strip().splitlines()
    return lines[0] if r.returncode == 0 and lines else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr,
    )
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)

    # The checkout need not be a git repository; never look above it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    cmd = [
        os.path.join(target, "release", "ttdc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", probe(["git", "rev-parse", "HEAD"], root, git_env),
        "--rustc", probe(["rustc", "-V"], root),
    ]
    code, out = run(cmd, RUN_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
