#!/usr/bin/env python3
"""Build and run the dose-stack benchmark (BENCHMARK.json).

Run from the repository root:

    python3 dosebench/run.py --workload serve_churn --seed 1 \\
        --seconds 12 --trace 0

The C++ binary is built from source into .bench_build/ (CMake, Release)
on every invocation; the build is incremental, and its output goes to
.bench_build/build.log so that the binary's JSON result stays the last line
of standard output.  Every flag is passed through to the binary; with
--trace 1 the spans are written to .bench_build/traces/.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
LOG = os.path.join(".bench_build", "build.log")
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j4", "--target", "dosebench"],
    ]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("dosebench: build failed, see %s\n" % LOG)
                return None
    return os.path.join(BUILD_DIR, "dosebench")


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    binary = build()
    if binary is None:
        return 1
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        args = args + ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
