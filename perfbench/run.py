#!/usr/bin/env python3
"""Run one workload of the served-query benchmark.

    python3 perfbench/run.py --workload cold-snapshot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/main.exe from source with
dune (into .bench_build/), runs the workload with its inputs generated
from --seed, and prints the run's description and then, as the last
line of standard output, the result as one JSON object. --trace 1
prints the per-layer ledger instead of the end-to-end metrics. Exits
non-zero without a result when the build, the run or an answer check
fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hot-http", "cold-snapshot", "sharded", "live-write")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def private_env():
    """The environment for dune and the benchmark: temporary files go
    under the build directory, so that nothing is written outside the
    checkout."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of the repository")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    # --root . keeps dune from looking above the checkout; the cache is off
    # so that nothing is written outside it
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
           "--profile", "release", "--display", "quiet", "perfbench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=private_env()).returncode != 0 \
            or not os.path.exists(EXE):
        fail("build failed")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    expected = declared_metrics(args.trace)

    work = os.path.join(BUILD_DIR, "perfbench-work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(BUILD_DIR, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--spans", spans]
    # its own process group, so a timeout also stops the load generator
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            env=private_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{args.workload} failed (exit {proc.returncode})", proc.returncode or 1)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("the metrics printed differ from those BENCHMARK.json declares")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
