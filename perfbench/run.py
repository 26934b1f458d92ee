#!/usr/bin/env python3
"""Builds and runs the benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <compile_cold|first_run|hot_run|sim_run> \
        --seed <n> --seconds <s> --trace <0|1> [--requests <n>] [--corrupt-reference]

The benchmark crate (`perfbench/Cargo.toml`) is built in release mode,
offline, into `$CARGO_TARGET_DIR` (default `.bench_build`); then the
binary runs with the given arguments. Its standard output is passed
through: the last line is the JSON result. The exit code is the binary's,
or 2 when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    run = subprocess.run([binary, "--scratch", scratch] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
