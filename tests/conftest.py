import logging
import time
from pathlib import Path

import pytest

from synrec.cegis import (
    LazyBinder,
    SynthesisConfig,
    SynthesisTimeout,
    VerifyResult,
    _to_reference,
    iter_inputs,
    total_assignment,
)
from synrec.compiled import compile_concrete
from synrec.evaluator import evaluate_harness
from synrec.pipeline import load_with_library

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

logging.getLogger("synrec").setLevel(logging.WARNING)


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.synrec").read_text()


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
        phi = total_assignment(expanded.control_space, phi)
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
        stats.candidate_evaluations += 1
        if not out.passed:
            return False
    return True


def reference_search(expanded, cexs, cfg, decomp, deadline, stats, harness):
    """The inductive search by the reference tree-walking evaluator over
    reference input bindings: the oracle for the compiled search.

    Returns the binder and whether its bindings pass every counterexample.
    """
    binder = LazyBinder(expanded.control_space)
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
