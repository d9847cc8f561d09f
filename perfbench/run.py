#!/usr/bin/env python3
"""Build `hsa` and the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build in the checkout). The harness prints every metric
by name and unit and ends its output with one JSON result line; see
perfbench/METRICS.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args):
    # Build logs go to stderr; stdout is reserved for the harness.
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/cli)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "hsa-cli", "--bin", "hsa"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"])
    harness = os.path.join(target, "release", "perfbench")
    hsa = os.path.join(target, "release", "hsa")
    proc = subprocess.run([harness, "--hsa", hsa, *sys.argv[1:]], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
