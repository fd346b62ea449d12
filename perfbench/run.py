#!/usr/bin/env python3
"""Repository benchmark: builds ea_bench and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

ea_bench (perfbench/src, built with CMake into .bench_build/) runs the
workload in its own process and reports metric values; this script attaches
each metric's unit from BENCHMARK.json, prints a table of every metric to
stdout, and prints the result object as the last line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A per-layer metric of a layer the workload does not run reads 0. The exit
code is non-zero when a check fails or ea_bench cannot be built or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds ea_bench; returns its path."""
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", "ea_bench",
                  "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return build_dir / "ea_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found; nothing to build")

    exe = build(root, root / ".bench_build" / "perfbench")
    workdir = root / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        trace = workdir / "trace.json"
        if trace.is_file():  # Chrome trace of the traced run, kept per workload.
            traces = root / ".bench_build" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace.replace(traces / f"{args.workload}.json")
        shutil.rmtree(workdir, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        fail(f"ea_bench exited with code {child.returncode}")
    report = json.loads(lines[-1])

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["values"]
    result = {}
    for metric in metrics:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif args.trace:
            value = 0  # The workload does not run this layer.
        else:
            fail(f"{args.workload} did not measure end-to-end metric {name}")
        result[name] = {"value": value, "unit": metric["unit"]}

    for name, entry in result.items():
        print(f"{args.workload:12s} {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": result}))
    sys.stdout.flush()
    sys.exit(0 if report["correct"] and child.returncode == 0 else 1)


if __name__ == "__main__":
    main()
