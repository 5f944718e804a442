#!/usr/bin/env python3
"""Checks of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

1. The correctness gate fires.  A warm_plan run whose expected output
   has one byte changed must report "correct": false with every op
   failed.  The same run against RESULTS.json must report no failure.
2. Exact counts repeat.  Two traced fuzz_smoke runs with the same seed
   must agree on every per-layer metric classed "exact".

Exits 0 when every check holds.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

SCRATCH = ".perfbench_selftest"


def run(*args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=400,
    )
    if out.returncode != 0:
        sys.exit(f"benchmark exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    classes = next(
        (json.loads(l)["classes"] for l in lines if l.startswith('{"classes"')), {}
    )
    return json.loads(lines[-1]), classes


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return cond


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    ok = True
    try:
        with open("RESULTS.json", "rb") as f:
            good = f.read()
        # Change one digit of the first number after "data".
        i = good.index(b'"data"')
        while not good[i:i + 1].isdigit():
            i += 1
        digit = b"1" if good[i:i + 1] != b"1" else b"2"
        wrong = os.path.join(SCRATCH, "wrong.json")
        with open(wrong, "wb") as f:
            f.write(good[:i] + digit + good[i + 1:])

        common = ["--workload", "warm_plan", "--seed", "1", "--seconds", "1",
                  "--trace", "0"]
        bad, _ = run(*common, "--expect", wrong)
        ok &= check(bad["correct"] is False, "wrong expected output: correct is false")
        ok &= check(bad["failed"] == bad["attempted"] > 0,
                    f"wrong expected output: all {bad['attempted']} ops failed")
        right, _ = run(*common)
        ok &= check(right["correct"] is True and right["failed"] == 0,
                    "committed RESULTS.json: no op failed")

        traced = ["--workload", "fuzz_smoke", "--seed", "3", "--seconds", "1",
                  "--trace", "1"]
        (a, classes), (b, _) = run(*traced), run(*traced)
        exact = [m for m, c in classes.items() if c == "exact"]
        differ = [m for m in exact
                  if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
        ok &= check(bool(exact) and not differ,
                    f"{len(exact)} exact counts repeat across two traced runs"
                    + (f" (differ: {differ})" if differ else ""))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
