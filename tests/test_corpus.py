"""Corpus-level integration checks."""

import pytest

from synrec.cegis import SynthesisConfig, run_cegis
from synrec.parser import parse_program
from synrec.pipeline import check_concrete, load_with_library, prepare
from synrec.printer import pretty_print_program

from conftest import CORPUS, corpus_text

SMALL = ("elimBool", "lIns", "tIns")


@pytest.mark.parametrize("name", SMALL)
def test_solutions_round_trip_and_recheck(name):
    """parse . print is a fixpoint on synthesized solutions, and the emitted
    text re-checks clean against the original harness."""
    text = corpus_text(name)
    cfg = SynthesisConfig(timeout_secs=120)
    prep = prepare(load_with_library(text), cfg)
    res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    assert res.solved
    printed = pretty_print_program(res.solution)
    assert parse_program(printed) == res.solution
    assert pretty_print_program(parse_program(printed)) == printed
    vr = check_concrete(text, cfg, solution_text=printed)
    assert vr.passed


def test_expected_solution_checks_at_depth2():
    cfg = SynthesisConfig(input_depth=2)
    vr = check_concrete(corpus_text("lang.expected"), cfg)
    assert vr.passed and vr.strategy == "value-class" and vr.evaluations == 74


def test_corpus_files_have_one_harness_each():
    for path in CORPUS.glob("*.synrec"):
        program = load_with_library(path.read_text())
        assert len(program.harnesses) == 1, path.name
