#!/usr/bin/env python3
"""QuakeViz benchmark: build perfbench/ and run one workload.

    python3 perfbench/run.py --workload movie|ingest|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark binary (Release) in .bench_build/; later calls only rebuild what
changed. Datasets and frames go to .bench_work/ and are removed afterwards.
The last line of standard output is the result object; it is printed only
when the run completed and its metrics match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "qv_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "qv_perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def valid(result, trace):
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return False
    return (isinstance(result.get("correct"), bool)
            and isinstance(result.get("attempted"), int)
            and isinstance(result.get("failed"), int)
            and result["attempted"] >= 1)


def main():
    # A terminated driver takes the benchmark binary down with it:
    # subprocess.run kills and reaps its child when an exception unwinds.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["movie", "ingest", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    shutil.rmtree(WORK, ignore_errors=True)
    if args.selftest:
        cmd = [BINARY, "--selftest", "--work", WORK]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if args.selftest:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run.py: last line is not a result object", file=sys.stderr)
        return 1
    if not valid(result, args.trace == 1):
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
