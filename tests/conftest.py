import logging
from pathlib import Path

import pytest

from synrec.cegis import SynthesisConfig, VerifyResult, iter_inputs, total_assignment
from synrec.evaluator import evaluate_harness
from synrec.parser import load_library, parse_program
from synrec.prelude import prelude_text

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
    return load_library(parse_program(lang_text), prelude_text())


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
        sigma = {n: v for (n, _), v in zip(harness.params, args)}
        out = evaluate_harness(expanded.program, phi, sigma, limits, harness=harness)
        evals += 1
        if not out.passed:
            return VerifyResult(False, sigma, out, evals)
    return VerifyResult(True, evaluations=evals)


@pytest.fixture
def small_cfg() -> SynthesisConfig:
    return SynthesisConfig(input_depth=2, timeout_secs=60)


@pytest.fixture(scope="session")
def default_cfg() -> SynthesisConfig:
    return SynthesisConfig()
