#!/usr/bin/env python3
"""SCAN end-to-end benchmark: build from this checkout, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: serve_mixed, serve_overload_obs, des_fig4, kb_feedback (see
BENCHMARK.json for why each exists and which layers it stresses).

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench as a Release build; later calls only re-run the
incremental build. Build output goes to stderr, so the last line of stdout
is the result JSON printed by the benchmark binary. The exit code is the
binary's: non-zero when the build fails or a correctness check fails.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "scan_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no SCAN sources next to perfbench/ "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "scan_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def fixed_layout_prefix():
    """Runs the binary without address-space randomization when allowed.

    With randomization on, heap and code placement alone move KB
    throughput by about 10% between otherwise identical processes.
    """
    setarch = shutil.which("setarch")
    if setarch:
        prefix = [setarch, platform.machine(), "-R"]
        probe = subprocess.run(prefix + ["true"], capture_output=True)
        if probe.returncode == 0:
            return prefix
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    cmd = fixed_layout_prefix() + cmd
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
