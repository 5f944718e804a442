#!/usr/bin/env python3
"""Build and run the benchmark: one workload, one run.

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It builds perfbench/main.exe with dune
(inside the checkout: the shared dune cache is disabled), records the git
commit and dirty flag when the checkout is a git work tree, and runs the
benchmark, whose last line of output is the result object.  Any argument
it does not know (--expect FILE) is passed through.  It exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def git(env, *args):
    try:
        out = subprocess.run(
            ["git", *args], env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit_and_dirty():
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    sha = git(env, "rev-parse", "--show-toplevel")
    if sha is None or os.path.realpath(sha) != os.path.realpath(os.getcwd()):
        return "unknown", "unknown"
    sha = git(env, "rev-parse", "HEAD") or "unknown"
    status = git(env, "status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("true" if status else "false")
    return sha, dirty


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args, rest = parser.parse_known_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the repository root (no dune project here)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sha, dirty = commit_and_dirty()
    cmd = [EXE, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--commit", sha, "--dirty", dirty, *rest]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first, so the run removes its private stores.
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
