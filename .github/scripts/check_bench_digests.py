#!/usr/bin/env python3
"""Check that every benchmark workload reproduces its recorded result digest.

    python3 .github/scripts/check_bench_digests.py [--seconds S] [--threads 1,8]

Run from the repository root. For each workload and each thread count,
this runs `python3 perfbench/run.py --workload W --seconds S` with
RAYON_NUM_THREADS set to that count, and compares the `result_digest` the
run prints with the seed-1 digest recorded for W in the newest
BENCH_perfbench.json change that records one. Results must be
bit-identical at any thread count, and a change that only makes the
simulator faster leaves every digest as recorded; a run whose digest
differs, that reports itself incorrect, or that fails, fails the check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("serve_mix", "mvm_ideal", "device_noisy", "fig10_paper")
LEDGER = "BENCH_perfbench.json"
DIGEST = re.compile(r"result_digest ([0-9a-f]{16})")


def recorded_digest(ledger, workload):
    """The seed-1 digest of `workload` in the newest change recording one."""
    for change in reversed(ledger["changes"]):
        run = change.get("end_to_end", {}).get(workload, {}).get("seed1", {})
        digests = run.get("result_digest", {}).get("change")
        if digests is None:
            continue
        if isinstance(digests, str):
            digests = [digests]
        if len(set(digests)) != 1:
            sys.exit(f"error: {LEDGER} records several digests for {workload}: {digests}")
        return digests[0]
    sys.exit(f"error: {LEDGER} records no seed-1 digest for {workload}")


def run_digest(workload, seconds, threads):
    """The digest one run prints, or an error message."""
    env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        return None, f"exit status {run.returncode}: {run.stderr.strip()[-2000:]}"
    lines = run.stdout.strip().splitlines()
    if not lines or not json.loads(lines[-1]).get("correct"):
        return None, "the run reports itself incorrect:\n" + run.stdout
    found = DIGEST.findall(run.stdout)
    if not found:
        return None, "the run printed no result_digest:\n" + run.stdout
    return found[-1], None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--threads", default="1,8", help="comma-separated RAYON_NUM_THREADS values")
    args = parser.parse_args()
    with open(LEDGER) as f:
        ledger = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        want = recorded_digest(ledger, workload)
        for threads in args.threads.split(","):
            got, error = run_digest(workload, args.seconds, threads)
            if error is None and got != want:
                error = f"digest {got}, recorded {want}"
            verdict = "ok" if error is None else "FAILED: " + error
            print(f"{workload} RAYON_NUM_THREADS={threads}: {verdict}", flush=True)
            failures += error is not None
    if failures:
        sys.exit(f"{failures} run(s) did not reproduce the recorded digest")


if __name__ == "__main__":
    main()
