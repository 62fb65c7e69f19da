#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repo root. Configures and builds benchmark/CMakeLists.txt (the
pecan_core library plus the pecan_bench binary, portable Release) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints the
binary's lines followed by ONE final JSON line whose metrics are exactly the
end_to_end (--trace 0) or per_layer (--trace 1) metrics named in
BENCHMARK.json. Exits nonzero, without a result line, when the build or the
run fails, and nonzero after the result line when an output check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; logs go to stderr."""
    if not os.path.isfile(os.path.join("src", "runtime", "engine.hpp")):
        die("no library sources under ./src; run from the repo root")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", "benchmark", "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = [cmake, "--build", cmake_dir, "--target", "pecan_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
        die("build failed")
    return os.path.join(cmake_dir, "pecan_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; expected one of {workloads}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        die(f"pecan_bench exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        die("pecan_bench printed no result line")

    for line in lines[:-1]:
        print(line)
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            die(f"pecan_bench did not report {m['name']}")
        value = result["metrics"][m["name"]]
        if value["unit"] != m["unit"]:
            die(f"{m['name']}: unit {value['unit']} != {m['unit']} in BENCHMARK.json")
        metrics[m["name"]] = value
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
