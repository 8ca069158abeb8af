#!/usr/bin/env python3
"""Run the benchmark corpus with and without inductive decomposition.

Thin wrapper over `synrec bench`; the corpus defaults to `corpus/`, and
other arguments are forwarded, e.g.
`python scripts/run_bench.py --json BENCH.json` or
`python scripts/run_bench.py corpus --timeout-secs 120`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from synrec.cli import main  # noqa: E402

if __name__ == "__main__":
    args = sys.argv[1:]
    if not args or args[0].startswith("-"):
        args = [str(ROOT / "corpus"), *args]
    sys.exit(main(["bench", *args]))
