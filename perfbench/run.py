#!/usr/bin/env python3
"""Build and run the whole-campaign benchmark.

    python3 perfbench/run.py --workload fuzz-healer --seed 1 --seconds 40 --trace 0

Builds perfbench/main.exe with dune from the source tree this file sits
in, runs it from the root of that tree, and checks that the result line
names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1). The last line of
standard output is the JSON result; progress and per-metric summaries
go to standard error. Exits non-zero, printing no result, when the tree
cannot be built or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# A run measures for --seconds and then finishes its last campaign and
# output checks; anything far beyond that is a hang.
GRACE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found in {ROOT}: nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(ROOT, ".perfbench_cache"))
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"dune build failed with code {r.returncode}")


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own session, so a timeout can stop every campaign process too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    return out.splitlines()


def check(lines, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{name} is not a number")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    t0 = time.time()
    build()
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    lines = run(args)
    check(lines, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
