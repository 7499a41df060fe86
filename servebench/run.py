#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):
  python3 servebench/run.py --workload point_lookup --seed 1 --seconds 10 \
      --trace 0 [servebench flags...]

The harness is configured and compiled into .bench_build/ (about a minute the
first time, an incremental no-op afterwards); every argument is passed to the servebench
binary, whose last line of output is the result JSON. Build output goes to
.bench_build/build.log; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs]]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("servebench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "servebench")] + sys.argv[1:] + \
          ["--workdir", ROOT]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("servebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
