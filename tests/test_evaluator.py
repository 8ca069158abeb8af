import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synrec.ast import AdtType
from synrec.cegis import SynthesisConfig, enumerate_values
from synrec.errors import InternalError
from synrec.evaluator import (
    EvalLimits,
    VBoxed,
    VRecord,
    evaluate_harness,
    format_value,
    values_equal,
)
from synrec.expand import expand_program
from synrec.indecomp import (
    apply_inductive_decomposition,
    classify_transformer,
    detect_spec_shape,
)
from synrec.parser import parse_program
from synrec.pipeline import load_with_library

from conftest import search_program

LIMITS = EvalLimits(max_depth=10)


def num(v):
    return VRecord("NumS", {"v": v})


def between(a, b, c):
    return VRecord("BetweenS", {"a": a, "b": b, "c": c})


def binary(op, a, b):
    return VRecord("BinaryS", {"op": VRecord(op, {}), "a": a, "b": b})


TRUE_S = VRecord("TrueS", {})
FALSE_S = VRecord("FalseS", {})


@pytest.fixture(scope="module")
def solution():
    from conftest import corpus_text

    p = parse_program(corpus_text("lang.expected"))
    return expand_program(p, SynthesisConfig().expansion_context()).program


def test_solution_passes_on_samples(solution):
    for sigma in (
        between(num(1), num(2), num(3)),
        between(num(3), num(2), num(1)),
        binary("AndOp", TRUE_S, FALSE_S),
        binary("LtOp", num(0), between(num(0), num(1), num(2))),
    ):
        out = evaluate_harness(solution, {}, {"exp": sigma}, LIMITS)
        assert out.passed, f"{format_value(sigma)}: {out}"


def test_mutant_fails_on_trues(solution):
    from conftest import corpus_text

    text = corpus_text("lang.expected").replace(
        "case TrueS: return new BoolD(v = 1);", "case TrueS: return new BoolD(v = 0);"
    )
    prog = expand_program(parse_program(text), SynthesisConfig().expansion_context()).program
    out = evaluate_harness(prog, {}, {"exp": TRUE_S}, LIMITS)
    assert out.kind == "assert_failed"


def test_purity(solution):
    sigma = {"exp": between(num(0), num(1), num(2))}
    a = evaluate_harness(solution, {}, sigma, LIMITS)
    b = evaluate_harness(solution, {}, sigma, LIMITS)
    assert a == b


def test_limit_monotonicity(solution):
    sigma = {"exp": between(between(num(0), num(1), num(2)), num(2), num(1))}
    passing_at = None
    for depth in range(1, 12):
        out = evaluate_harness(solution, {}, sigma, EvalLimits(depth))
        if out.passed and passing_at is None:
            passing_at = depth
        if passing_at is not None:
            assert out.passed, f"pass at {passing_at} but {out} at {depth}"


def test_depth_limit_trips(solution):
    sigma = {"exp": between(num(0), num(1), num(2))}
    out = evaluate_harness(solution, {}, sigma, EvalLimits(max_depth=1))
    assert out.kind == "resource"


def test_evaluate_harness_restores_recursion_limit(solution):
    """The tree walk raises the interpreter's recursion limit for one call only."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        sigma = {"exp": between(num(0), num(1), num(2))}
        outcomes = []
        for limits in (LIMITS, EvalLimits(max_depth=1)):
            outcomes.append(evaluate_harness(solution, {}, sigma, limits).kind)
            assert sys.getrecursionlimit() == 3000
        assert outcomes == ["pass", "resource"]
    finally:
        sys.setrecursionlimit(before)


def test_values_equal():
    assert values_equal(VRecord("AndOp", {}), VRecord("AndOp", {}))
    assert not values_equal(3, 4)
    assert not values_equal((1, 2), (1, 2, 3))
    assert values_equal((1, 2), (1, 2))
    assert not values_equal(VRecord("AndOp", {}), VRecord("OrOp", {}))
    with pytest.raises(InternalError):
        values_equal(VRecord("AndOp", {}), 3)


def test_always_fail_is_infeasible():
    p = parse_program(
        "adt L { N {} } harness void m(L l) { int x = unreachable<int>; assert(x == x); }"
    )
    out = evaluate_harness(p, {}, {"l": VRecord("N", {})}, LIMITS)
    assert out.kind == "infeasible"


def test_out_of_bounds_is_infeasible():
    p = parse_program(
        "adt L { N {} } harness void m(L l) { int x = {1, 2}[2]; assert(x == x); }"
    )
    out = evaluate_harness(p, {}, {"l": VRecord("N", {})}, LIMITS)
    assert out.kind == "infeasible"


def test_first_assert_failure_wins():
    p = parse_program(
        """
        adt L { N {} }
        harness void m(L l) {
          assert(1);
          assert(0);
          assert(0 == 1);
        }
        """
    )
    out = evaluate_harness(p, {}, {"l": VRecord("N", {})}, LIMITS)
    assert out.kind == "assert_failed" and out.assert_id == 1


# -- decomposition rewrite rules ---------------------------------------------------


@pytest.fixture(scope="module")
def decomposed_lang():
    from conftest import corpus_text

    program = load_with_library(corpus_text("lang"))
    exp = expand_program(program, SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function("desugar"), shape.source_adt)
    return apply_inductive_decomposition(exp, shape, report), shape


def test_interp_d_on_boxed_becomes_interp_s(decomposed_lang):
    """dstInterpret applied to a boxed term must equal srcInterpret of it."""
    dec, shape = decomposed_lang
    prog = dec.program
    from synrec.evaluator import _Ctx, _call

    for term in (num(2), TRUE_S, between(num(0), num(1), num(2))):
        ctx = _Ctx(prog, __import__("synrec.evaluator", fromlist=["FixedControls"]).FixedControls({}), LIMITS, shape)
        got = _call(ctx, shape.interp_d, (VBoxed(term),))
        ctx2 = _Ctx(prog, ctx.controls, LIMITS, shape)
        want = _call(ctx2, shape.interp_s, (term,))
        assert got == want


def test_boxed_forced_in_other_context(decomposed_lang):
    """A boxed value consumed structurally falls back to running trans."""
    dec, shape = decomposed_lang
    from synrec.cegis import SynthesisConfig, synthesize_inductive
    from synrec.evaluator import FixedControls, _Ctx, _force

    cfg = SynthesisConfig(input_depth=1, timeout_secs=30)
    phi = synthesize_inductive(dec, search_program(dec, cfg, shape), [(("TrueS",),)])
    assert phi is not None
    ctx = _Ctx(dec.program, FixedControls(phi), LIMITS, shape)
    forced = _force(ctx, VBoxed(TRUE_S))
    assert isinstance(forced, VRecord)
    assert forced.variant in {"NumD", "BoolD", "BinaryD"}


# -- preservation on random typed inputs --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_preservation_interpreter_values(solution, data):
    """srcInterpret of any enumerated value is an int (inhabits type_of)."""
    cfg = SynthesisConfig(input_depth=2)
    values = enumerate_values(solution, AdtType("srcAST"), 2, cfg)
    sigma = data.draw(st.sampled_from(values))
    out = evaluate_harness(solution, {}, {"exp": sigma}, LIMITS)
    assert out.passed
