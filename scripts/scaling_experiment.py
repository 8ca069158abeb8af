#!/usr/bin/env python3
"""Synthesis time versus source-variant count, with and without
inductive decomposition.

Generates the scaling family (one literal plus a growing set of unary
arithmetic constructs), synthesizes each member in both modes, and prints
a TSV table of wall times, evaluation counts (all harness runs, and
those of the inductive search alone), and speedup ratios.  The
no-decomposition runs are expected to grow steeply and may hit the
timeout at the top of the range.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from synrec.cegis import SynthesisConfig  # noqa: E402
from synrec.pipeline import synthesize  # noqa: E402
from synrec.scaling import MAX_VARIANTS, scaling_benchmark  # noqa: E402


def run(n: int, timeout: float, indecomp: bool):
    cfg = dataclasses.replace(
        SynthesisConfig(), timeout_secs=timeout, indecomp=indecomp
    )
    start = time.monotonic()
    res = synthesize(scaling_benchmark(n), cfg)
    return res, time.monotonic() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=3)
    ap.add_argument("--max", type=int, default=MAX_VARIANTS)
    ap.add_argument("--timeout-secs", type=float, default=120.0)
    args = ap.parse_args()

    print(
        "variants\tstatus\twall_s\tevals\tsearch_evals"
        "\tstatus_noopt\twall_s_noopt\tevals_noopt\tsearch_evals_noopt\tspeedup"
    )
    for n in range(args.min, args.max + 1):
        opt, t_opt = run(n, args.timeout_secs, True)
        unopt, t_unopt = run(n, args.timeout_secs, False)
        speedup = f"{t_unopt / max(t_opt, 1e-3):.1f}"
        print(
            f"{n}\t{opt.status}\t{t_opt:.2f}\t{opt.stats.candidate_evaluations}"
            f"\t{opt.stats.search_evaluations}"
            f"\t{unopt.status}\t{t_unopt:.2f}\t{unopt.stats.candidate_evaluations}"
            f"\t{unopt.stats.search_evaluations}\t{speedup}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
