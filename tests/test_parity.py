"""The parity table: 21 synthesis runs pinned to the path they take.

Each run is `synthesize` with the default configuration plus the shown
overrides.  It pins the status, the iterations, `candidate_evaluations`,
and the first 16 hex digits of the sha256 of the counterexample list (one
rendering a line) and of the printed solution (empty when unsolved).  A
change that keeps the search order and the verdicts keeps every entry; a
change that only skips work may lower the evaluations alone.
"""

import hashlib

import pytest

from synrec.cegis import SynthesisConfig
from synrec.pipeline import synthesize
from synrec.printer import pretty_print_program
from synrec.scaling import scaling_benchmark

from conftest import corpus_text

# run -> (status, iterations, candidate_evaluations, counterexamples, solution)
PARITY = {
    "scaling3-opt": ("solved", 6, 275, "cdea1ec1471c5ffd", "497366f843c53d2a"),
    "scaling3-noopt": ("solved", 6, 425, "cdea1ec1471c5ffd", "497366f843c53d2a"),
    "scaling4-opt": ("solved", 8, 599, "645af9b24b0b1085", "513770c9f61580e1"),
    "scaling4-noopt": ("solved", 8, 1574, "645af9b24b0b1085", "513770c9f61580e1"),
    "scaling5-opt": ("solved", 10, 872, "7ca88bfbb0304de4", "c01c680976f2a007"),
    "scaling5-noopt": ("solved", 10, 3754, "7ca88bfbb0304de4", "c01c680976f2a007"),
    "scaling6-opt": ("solved", 12, 1519, "a0fb33e4ab125a09", "200be58d872aa9bd"),
    "scaling6-noopt": ("solved", 12, 9736, "a0fb33e4ab125a09", "200be58d872aa9bd"),
    "scaling7-opt": ("solved", 14, 2704, "160a7cb2853e9e73", "e836a93d59966147"),
    "scaling7-noopt": ("solved", 14, 28885, "160a7cb2853e9e73", "e836a93d59966147"),
    "scaling8-opt": ("solved", 15, 2924, "318006d488083676", "b2c50de672a6da18"),
    "scaling8-noopt": ("solved", 15, 39720, "318006d488083676", "b2c50de672a6da18"),
    "elimBool-opt": ("solved", 11, 744, "44c90d903363255e", "11e9f2ea1c0fe040"),
    "elimBool-noopt": ("solved", 11, 4655, "44c90d903363255e", "11e9f2ea1c0fe040"),
    "lIns-opt": ("solved", 3, 52, "344d0b01a944ff75", "46a4253efd955dfe"),
    "lIns-noopt": ("solved", 3, 52, "344d0b01a944ff75", "46a4253efd955dfe"),
    "tIns-opt": ("solved", 4, 180, "8021b4d21c5199e3", "139eb5858607d289"),
    "tIns-noopt": ("solved", 4, 180, "8021b4d21c5199e3", "139eb5858607d289"),
    "lang-d2-opt": ("solved", 11, 6125, "47b1598b17ed8dff", "1211d830f2ae2107"),
    "lang-d2-noopt": ("solved", 11, 36640, "47b1598b17ed8dff", "1211d830f2ae2107"),
    "lang-d3-opt": ("solved", 11, 7762, "47b1598b17ed8dff", "1211d830f2ae2107"),
}


def _source_and_config(run: str):
    """`scalingN-MODE`, `NAME-MODE` or `NAME-dD-MODE`, MODE `opt` (with
    decomposition) or `noopt`."""
    name, *depth, mode = run.split("-")
    bounds = {"input_depth": int(depth[0][1:])} if depth else {}
    cfg = SynthesisConfig(indecomp=mode == "opt", **bounds)
    if name.startswith("scaling"):
        return scaling_benchmark(int(name.removeprefix("scaling"))), cfg
    return corpus_text(name), cfg


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("run", PARITY)
def test_parity_run(run):
    text, cfg = _source_and_config(run)
    res = synthesize(text, cfg)
    solution = pretty_print_program(res.solution) if res.solution is not None else ""
    got = (
        res.status,
        res.stats.iterations,
        res.stats.candidate_evaluations,
        _digest("\n".join(res.stats.counterexamples)),
        _digest(solution),
    )
    assert got == PARITY[run]
