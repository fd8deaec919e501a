#!/usr/bin/env python3
"""Builds the hiREP benchmark program from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig5_uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the libraries
in src/ plus perfbench/hirep_perfbench.cpp, Release) under .bench_build/, or
under $CARGO_TARGET_DIR when that is set; later calls only rebuild what
changed.  Build output goes to standard error.  The program's standard output
is passed through; its last line is the result JSON object.  With --trace 1
the spans are also written to <build dir>/trace-<workload>-<seed>.jsonl.

Exit code: the program's (0 when the correctness gate holds), or 2 when the
sources are missing or the build fails, in which case no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hiREP sources under src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hirep_perfbench")


def check_result(line, trace):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
    names = set(result["metrics"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert names == wanted, sorted(names ^ wanted)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                out, f"trace-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"hirep_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if args.self_test:
        print(stdout, end="")
        return proc.returncode
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, AssertionError) as e:
        print(stdout, end="", file=sys.stderr)
        fail(f"hirep_perfbench exited with {proc.returncode} and no valid result: {e!r}")
    print(stdout, end="")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
