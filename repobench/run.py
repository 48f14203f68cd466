#!/usr/bin/env python3
"""Build the benchmark from source and run it confined to one CPU.

Usage (from the repository root):

    python3 repobench/run.py --workload <sweep|batch|service> --seed <n> \
        --seconds <s> --trace <0|1>

Builds `repobench/` in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then replaces itself with the benchmark binary pinned by
`taskset` to the highest-numbered CPU this process may use, so the service
actor hop never crosses CPUs. All arguments are passed through; the last
line of standard output is the JSON result. See README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "repobench")
    cpu = max(os.sched_getaffinity(0))
    sys.stdout.flush()
    os.execvp("taskset", ["taskset", "-c", str(cpu), binary, *sys.argv[1:]])
    return 1  # not reached: execvp replaces this process


if __name__ == "__main__":
    sys.exit(main())
