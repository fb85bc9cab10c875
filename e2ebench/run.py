#!/usr/bin/env python3
"""Builds the rqp library and the e2ebench program, then runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload olap_star --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/e2ebench (Release, incremental). Build output
goes to stderr; the program's standard output is passed through, so the last
line is the run's JSON result. Every RQP_* environment variable is removed
before the program starts: the workloads set their engine features through
EngineOptions and nothing else may change them.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: run from the repository root "
                         "(src/CMakeLists.txt not found)\n")
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        return None
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    binary = build()
    if binary is None:
        sys.stderr.write("e2ebench: build failed\n")
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("RQP_")}
    args = [binary] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.call(args, env=env)


if __name__ == "__main__":
    sys.exit(main())
