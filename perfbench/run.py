#!/usr/bin/env python3
"""End-to-end benchmark of the provml provenance pipeline.

Run from the root of a provml checkout:

    python3 perfbench/run.py --workload sweep_ingest --seed 1 --seconds 20 --trace 0

Builds perfbench_e2e from source (CMake, Release) under the build root
($CARGO_TARGET_DIR if set, else .bench_build), then runs one measurement.
Build output goes to stderr; the benchmark's report goes to stdout, and
its last line is the JSON result. Scratch data lives under the build root
and is removed when the run ends. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_ingest", "explore_read", "live_mixed")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench_e2e"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a provml "
                  "checkout", file=sys.stderr)
            return 2

    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    scratch = os.path.join(build_root, f"scratch-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--trace-out", os.path.join(build_root, f"spans-{args.workload}.txt")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
