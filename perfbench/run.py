#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a package of its own, depending on the workspace
crates by path) in release mode into `$CARGO_TARGET_DIR`, or
`perfbench/target` when that is unset, and runs the binary from the
repository root with the given arguments. The binary's standard output
is passed through; its last line is the result object. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
