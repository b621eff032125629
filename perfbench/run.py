#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-mcf --seed 1 --seconds 20 --trace 0

Everything the Go toolchain writes (build cache, temporary files, the
binary, the traced run's CPU profile) stays under .bench_build/ in the
current directory. The exit code is the benchmark's; a failed build
exits 1 before any result is printed.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840  # a cold build compiles the whole simulator
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "cache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("PPROF_TMPDIR", "pprof")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    # The simulator runs one goroutine at a time. One P keeps the garbage
    # collector on the timed path, so run_s counts all the work a pair
    # costs, and results do not depend on the host's width.
    env["GOMAXPROCS"] = "1"

    binary = os.path.join(build, "perfbench")
    pgo = os.path.join(here, "..", "cmd", "experiments", "default.pgo")
    cmd = ["go", "build", "-o", binary]
    if os.path.exists(pgo):
        # Build with the profile the experiments CLI is built with, so the
        # benchmark times the code users run.
        cmd.append("-pgo=" + pgo)
    cmd.append(".")
    try:
        built = subprocess.run(cmd, cwd=here, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
