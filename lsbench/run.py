#!/usr/bin/env python3
"""Builds the LSched benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 lsbench/run.py --workload real_serve --seed 1 --seconds 25 --trace 0

The driver is configured and built under .bench_build/ with CMake (the first
run compiles the library, later runs rebuild only what changed), then run
from the repository root. Its last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the run's spans
to .bench_out/. See lsbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("real_serve", "sim_serve_job", "sim_train_tpch")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "lsbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("lsbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD, "lsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    # The program reads LSCHED_* variables (logging, worklist and GEMM
    # kinds, exporters); runs measure its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LSCHED_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # run() kills and reaps the driver if it overruns.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lsbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = proc.stdout.decode()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print("lsbench: driver exited with %d and no result" % proc.returncode,
              file=sys.stderr)
        return 1
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(out)
        print("lsbench: bad result line: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def check_result(line, trace):
    """Checks the result line against BENCHMARK.json: every metric of the
    mode (end_to_end untraced, per_layer traced), each in its unit and
    nothing else. Returns what is wrong, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "keys %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return "metrics %s, manifest %s" % (sorted(got.items()),
                                            sorted(want.items()))
    return None


if __name__ == "__main__":
    sys.exit(main())
