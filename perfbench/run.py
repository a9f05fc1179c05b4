#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-1k --seed 1 --seconds 12 --trace 0

Builds the perfbench command from the sources in this checkout (the Go build
cache, temporary files and the binary all live under .bench_build/), runs it
with the given arguments, and exits with its status. The last line of
standard output is the JSON result. Exits non-zero without a result when the
build fails, e.g. when the simulator sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# One run measures for --seconds; the slowest repetition adds at most a
# few seconds on top. Anything far beyond is a hang.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    return env


def main():
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        print(f"run.py: cannot run the go toolchain: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed:\n" + build.stdout, file=sys.stderr)
        return 2
    args = [binary, *sys.argv[1:], "--out", os.path.join(BUILD, "results")]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
