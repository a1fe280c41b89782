#!/usr/bin/env python3
"""Build and run the CT-Bus benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from this checkout's src/ tree (see
perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; snapshots, spill files and span dumps of a run go
there too. The last line of standard output is the benchmark binary's JSON
result; build output goes to standard error. Exits nonzero, without a
result line, when the checkout holds no sources to build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    cmake_dir = os.path.join(out_dir, "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = dict(os.environ)
    env.pop("CMAKE_CXX_COMPILER_LAUNCHER", None)
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", target, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    out_dir = build_dir()
    if args.selftest:
        if not build(out_dir, "perfbench_harness_test"):
            return 3
        test = os.path.join(out_dir, "build", "perfbench_harness_test")
        return subprocess.run([test], cwd=ROOT).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(out_dir, "ctbus_perfbench"):
        return 3
    sys.stdout.flush()
    command = [
        os.path.join(out_dir, "build", "ctbus_perfbench"),
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace,
        "--state-dir", os.path.join(out_dir, "state"),
        "--spans-dir", os.path.join(out_dir, "spans"),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
