#!/usr/bin/env python3
"""Build and run the fecim benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the release `fecim-serve` binary
(the served program) and the `perfbench` driver into $CARGO_TARGET_DIR
(default `.bench_build/`), then runs the driver. Build output goes to
standard error; the driver's last line of standard output is the JSON
result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_mix", "mvm_ideal", "device_noisy", "fig10_paper")
DEFAULT_SEED = 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "crates", "serve", "Cargo.toml")):
        sys.exit("error: the fecim sources are not next to perfbench/; run from a full checkout")
    target = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "fecim-serve", "--bin", "fecim-serve"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("error: build failed: " + " ".join(command))

    # Recorded with every result; "unknown" outside a git checkout. The
    # ceiling keeps git from searching above the checkout.
    commit = subprocess.run(
        ["git", "rev-parse", "--short=12", "HEAD"],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
    )
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "fecim-serve"),
        "--out-dir", os.path.join(target, "perfbench"),
        "--commit", commit.stdout.strip() if commit.returncode == 0 else "unknown",
    ]
    sys.exit(subprocess.run(command, cwd=root).returncode)


if __name__ == "__main__":
    main()
