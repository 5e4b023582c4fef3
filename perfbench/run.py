#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-single --seed 1 \\
        --seconds 10 --trace 0

The lmkg library and the benchmark are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds, later runs reuse the build. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Traced runs write their spans under the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the lmkg sources (CMakeLists.txt, src/) are not "
              "next to perfbench/", file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    # Keep the compiler's and the benchmark's temporary files inside the
    # checkout too.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    command = [os.path.join(build, "perfbench"), *sys.argv[1:],
               "--trace_dir", os.path.join(build_root, "traces"),
               "--work_dir", os.path.join(build_root, "work")]
    os.makedirs(os.path.join(build_root, "work"), exist_ok=True)
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
