import logging
import time
from pathlib import Path

import pytest

from synrec import cegis
from synrec.ast import (
    AlwaysFail,
    ArrayLit,
    Call,
    Choice,
    Ctor,
    FuncDecl,
    Hole,
    Index,
    Let,
    Var,
    children,
    walk,
)
from synrec.cegis import (
    LazyBinder,
    SynthesisConfig,
    SynthesisTimeout,
    VerifyResult,
    _to_reference,
    iter_inputs,
)
from synrec.compiled import compile_concrete
from synrec.evaluator import evaluate_harness
from synrec.instances import force_expansion
from synrec.pipeline import load_with_library

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

logging.getLogger("synrec").setLevel(logging.WARNING)


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.synrec").read_text()


def time_out_at_verify(monkeypatch, k):
    """Make the k-th call of `cegis.verify` in this test time out."""
    calls = []
    real = cegis.verify

    def verify_or_time_out(*args):
        calls.append(args)
        if len(calls) == k:
            raise SynthesisTimeout
        return real(*args)

    monkeypatch.setattr(cegis, "verify", verify_or_time_out)


def count_self_calls(fn: FuncDecl) -> int:
    return sum(1 for n in walk(fn.body) if isinstance(n, Call) and n.callee == fn.name)


@pytest.fixture(scope="session")
def lang_text() -> str:
    return corpus_text("lang")


@pytest.fixture(scope="session")
def lang_program(lang_text):
    return load_with_library(lang_text)


@pytest.fixture(scope="session")
def lang_expected_text() -> str:
    return corpus_text("lang.expected")


def reference_verify(expanded, phi, cfg) -> VerifyResult:
    """Bounded check by the reference tree-walking evaluator, one input at
    a time in enumeration order: the oracle for the compiled verifier."""
    harness = expanded.program.harnesses[0]
    limits = cfg.eval_limits()
    if len(phi) != len(expanded.control_space):
        phi = expanded.defaults | phi
    evals = 0
    for args in iter_inputs(expanded.program, harness, cfg):
        sigma = reference_sigma(expanded.program, harness, args)
        out = evaluate_harness(expanded.program, phi, sigma, limits, harness=harness)
        evals += 1
        if not out.passed:
            return VerifyResult(False, sigma, out, evals)
    return VerifyResult(True, evaluations=evals)


def reference_sigma(program, harness, args) -> dict:
    """Native harness arguments as the reference evaluator's input binding."""
    return {n: _to_reference(program, v) for (n, _), v in zip(harness.params, args)}


def search_program(expanded, cfg, shape=None):
    """The program the inductive search runs, compiled as `run_cegis` does."""
    return compile_concrete(expanded.program, shape, cfg.effective_unroll)


def _reference_passes(program, controls, cexs, limits, decomp, stats, harness) -> bool:
    """Run the harness on each counterexample in turn, counting every run;
    False at the first failure."""
    for sigma in cexs:
        out = evaluate_harness(
            program, controls, sigma, limits, decomposition=decomp, harness=harness
        )
        stats.search_evaluations += 1
        if not out.passed:
            return False
    return True


def reference_dead_from(expanded) -> dict[int, int]:
    """For each control point, the least value from which every value fails
    at the point's own read, found on the tree of the expansion forced in
    full: the oracle for `CompiledProgram.dead_from`.

    A hole that indexes an array of static length n (a literal, or a name
    `let`-bound to one) fails from n on.  A choice fails from one past its
    last arm that does not fail at once, and at once means: `unreachable`,
    an index into an empty array, a choice whose arms all fail at once, a
    constructor or array literal whose first operand does, or a `let`
    whose body does."""
    dead: dict[int, int] = {}

    def fails(e, lengths: dict) -> bool:
        t = type(e)
        if t is Let:
            fails(e.value, lengths)
            n = len(e.value.items) if type(e.value) is ArrayLit else None
            return fails(e.body, {**lengths, e.name: n})
        parts = [fails(c, lengths) for c in children(e)]
        if t is AlwaysFail:
            return True
        if t is Index and type(e.index) is Hole:
            base = e.base
            n = len(base.items) if type(base) is ArrayLit else None
            if type(base) is Var:
                n = lengths.get(base.name)
            if n is not None:
                dead[e.index.cp] = n
            return n == 0
        if t is Choice:
            live = [i for i, failed in enumerate(parts) if not failed]
            if not live or live[-1] + 1 < len(parts):
                dead[e.cp] = live[-1] + 1 if live else 1
            return not live
        return t in (Ctor, ArrayLit) and bool(parts) and parts[0]

    for f in force_expansion(expanded).functions:
        fails(f.body, {})
    return dead


def reference_search(expanded, cexs, cfg, decomp, deadline, stats, harness):
    """The inductive search by the reference tree-walking evaluator over
    reference input bindings: the oracle for the compiled search.  Like
    it, it never tries a dead value (`reference_dead_from`).

    Returns the binder and whether its bindings pass every counterexample.
    """
    binder = LazyBinder(expanded.control_space, reference_dead_from(expanded))
    limits = cfg.eval_limits()
    if not cexs:
        return binder, True
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisTimeout
        if _reference_passes(expanded.program, binder, cexs, limits, decomp, stats, harness):
            return binder, True
        if not binder.advance():
            return binder, False


@pytest.fixture
def small_cfg() -> SynthesisConfig:
    return SynthesisConfig(input_depth=2, timeout_secs=60)


@pytest.fixture(scope="session")
def default_cfg() -> SynthesisConfig:
    return SynthesisConfig()
