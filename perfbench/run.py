#!/usr/bin/env python3
"""Builds the benchmark program (mfd_perfbench) from source and runs one
workload.

Run from the repository root:

    python3 perfbench/run.py --workload mcnc_odc --seed 1 --seconds 20 --trace 0

Every argument is passed on to mfd_perfbench (perfbench/main.cpp). The build
goes to .bench_build/ (or $CARGO_TARGET_DIR when set) under the current
directory; its output goes to stderr, so mfd_perfbench's JSON result stays the
last line of stdout. A traced run (--trace 1) also writes the per-layer
report to <build dir>/perlayer-<workload>.json. mfd_perfbench then
replaces this process, so the exit code is its own, or 2 when the build
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "mfd_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    args = sys.argv[1:]
    if "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
        args += ["--layer-json",
                 os.path.join(build_dir, "perlayer-%s.json" % workload)]
    binary = os.path.join(build_dir, "mfd_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)  # mfd_perfbench replaces this process


if __name__ == "__main__":
    sys.exit(main())
