#!/usr/bin/env python3
"""Print each benchmark workload's output digest without its work counts.

    python scripts/outcome_digest.py [--seed N] [WORKLOAD ...]

`perfbench/run.py` digests the outcome of every job of a pass, and that
outcome holds how many harness runs each synthesis made and how many
inputs each check ran.  So a change that only skips work moves that
digest although every status, counterexample, solution and verdict stays
the same.  This script runs one pass of each workload through the
benchmark's own `workloads` and `run` modules (it changes neither) and
prints the digest of the same outcomes with those two counts left out:
equal digests before and after a change show that its results are equal.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402

# the work counts of `run.outcome`, and their places in its tuple
COUNTS = ("evaluations", "check_inputs")
PLACES = [i for i, v in enumerate(run.outcome({k: k for k in COUNTS})) if v in COUNTS]


def digest(workload: str, seed: int) -> str:
    """The first 16 hex digits of the sha256 of one pass's outcomes, each
    without the work counts."""
    outcomes = []
    for job in workloads.build(workload, seed):
        full = run.outcome(run.run_job(job))
        outcomes.append(tuple(v for i, v in enumerate(full) if i not in PLACES))
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for workload in args.workloads:
        print(f"{workload} {digest(workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
