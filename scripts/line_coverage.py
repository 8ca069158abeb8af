#!/usr/bin/env python3
"""List the lines of `src/synrec` that no test executes.

    python scripts/line_coverage.py [PYTEST ARGS ...]

Runs pytest in this process with the given arguments under a stdlib
`sys.settrace` line tracer, then prints, for each module of `src/synrec`,
the line ranges that hold code and never ran, and the share of code lines
that did.  It needs no coverage package.  The exit status is pytest's.

A line counts as code when the compiled module maps an instruction to it
(`co_lines`); so a `def` or `class` line counts, run at import, and a
function's docstring does not.  Code that pytest runs in other processes
or in threads started before the tracer is not seen.  Tracing slows the
tests down; deselect criterion 6, whose exhaustive scan would dominate,
and criterion 7, whose wall-time ratios mean little under the tracer:

    python scripts/line_coverage.py -q tests \
        --deselect tests/test_acceptance.py::test_criterion_6_acceleration_proxy \
        --deselect tests/test_acceptance.py::test_criterion_7_scaling_trend
"""

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "synrec"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402


def code_lines(path: Path) -> set[int]:
    """The lines to which the compiled module maps an instruction."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. "3, 7-9"."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    print(f"\nlines of {PACKAGE.relative_to(ROOT)} that no test executed:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        unrun = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {ranges(unrun)}")
    share = (total - missed) / total if total else 1.0
    print(f"{total - missed} of {total} code lines executed ({share:.1%})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
