"""Property tests pinning the compiled fast path to the reference evaluator."""

import random

import pytest

from synrec.cegis import (
    SynthesisConfig,
    _native_record,
    iter_inputs,
    substitute_controls,
    total_assignment,
)
from synrec.compiled import (
    CAssertFail,
    CExhausted,
    CInfeasible,
    compile_concrete,
    to_native,
)
from synrec.evaluator import EvalLimits, evaluate_harness
from synrec.expand import ExpansionContext, expand_program
from synrec.indecomp import (
    apply_inductive_decomposition,
    classify_transformer,
    detect_spec_shape,
)
from synrec.parser import parse_program
import toys
from conftest import reference_verify

MAX_DEPTH = 12
LIMITS = EvalLimits(max_depth=MAX_DEPTH, max_steps=1_000_000)


def outcomes_for(exp, phi, decomp, sigmas_ref, sigmas_native, harness):
    concrete = substitute_controls(exp, phi, unbox=False)
    prog = compile_concrete(concrete, shape=decomp, max_depth=MAX_DEPTH)
    runner = prog.func(harness.name)
    got = []
    for args in sigmas_native:
        try:
            runner(*args)
            got.append("pass")
        except CAssertFail:
            got.append("assert_failed")
        except (CInfeasible, IndexError):
            got.append("infeasible")
        except CExhausted:
            got.append("resource")
        prog.reset()
    want = []
    for sigma in sigmas_ref:
        out = evaluate_harness(exp.program, phi, sigma, LIMITS, decomposition=decomp)
        want.append(out.kind)
    return got, want


def sample_phis(exp, rng, n):
    phis = [total_assignment(exp.control_space, {})]
    for _ in range(n):
        phis.append(
            {p.id: rng.randint(p.lo, p.hi) for p in exp.control_space}
        )
    return phis


@pytest.mark.parametrize("source", ["PARITY", "SHIFT", "GAMMA"])
@pytest.mark.parametrize("decompose", [False, True])
def test_compiled_matches_reference(source, decompose):
    exp = expand_program(parse_program(getattr(toys, source)), ExpansionContext())
    decomp = None
    if decompose:
        shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
        report = classify_transformer(
            exp.program.function(shape.trans), shape.source_adt
        )
        exp = apply_inductive_decomposition(exp, shape, report)
        decomp = shape
    cfg = SynthesisConfig(input_depth=3)
    harness = exp.program.harnesses[0]
    sigmas_ref = [
        {n: v for (n, _), v in zip(harness.params, args)}
        for args in iter_inputs(exp.program, harness, cfg)
    ]
    sigmas_native = list(iter_inputs(exp.program, harness, cfg, record=_native_record))
    rng = random.Random(7)
    for phi in sample_phis(exp, rng, 12):
        got, want = outcomes_for(exp, phi, decomp, sigmas_ref, sigmas_native, harness)
        assert got == want


def test_compiled_matches_reference_on_lang_solution(lang_expected_text):
    exp = expand_program(parse_program(lang_expected_text), ExpansionContext())
    cfg = SynthesisConfig(input_depth=2)
    harness = exp.program.harnesses[0]
    sigmas_ref = [
        {"exp": args[0]} for args in iter_inputs(exp.program, harness, cfg)
    ]
    sigmas_native = list(iter_inputs(exp.program, harness, cfg, record=_native_record))
    got, want = outcomes_for(exp, {}, None, sigmas_ref, sigmas_native, harness)
    assert got == want
    assert set(got) == {"pass"}


def test_memoized_scan_matches_unmemoized(lang_expected_text):
    exp = expand_program(parse_program(lang_expected_text), ExpansionContext())
    cfg = SynthesisConfig(input_depth=2)
    harness = exp.program.harnesses[0]
    concrete = substitute_controls(exp, {}, unbox=False)
    plain = compile_concrete(concrete, max_depth=MAX_DEPTH, memoize=False)
    memo = compile_concrete(concrete, max_depth=MAX_DEPTH, memoize=True)
    for args in iter_inputs(exp.program, harness, cfg, record=_native_record):
        assert plain.func("srcInterpret")(args[0]) == memo.func("srcInterpret")(args[0])


def test_to_native_roundtrip():
    from synrec.evaluator import VRecord

    v = VRecord("BinaryS", {"op": VRecord("LtOp", {}), "a": VRecord("NumS", {"v": 3}), "b": VRecord("TrueS", {})})
    assert to_native(v) == ("BinaryS", ("LtOp",), ("NumS", 3), ("TrueS",))


def test_depth_limit_matches_reference():
    text = """
    adt N { Z {} S { N p; } }
    int depth(N x) { switch (x) { case Z: return 0; case S: return 1 + depth(x.p); } }
    harness void m(N x) { assert(depth(x) >= 0); }
    """
    exp = expand_program(parse_program(text), ExpansionContext())
    harness = exp.program.harnesses[0]
    from synrec.evaluator import VRecord

    deep = VRecord("Z", {})
    for _ in range(6):
        deep = VRecord("S", {"p": deep})
    for limit in (3, 6, 7, 10):
        ref = evaluate_harness(
            exp.program, {}, {"x": deep}, EvalLimits(limit, 100_000)
        )
        prog = compile_concrete(exp.program, max_depth=limit)
        try:
            prog.func("m")(to_native(deep))
            got = "pass"
        except CExhausted:
            got = "resource"
        assert got == ref.kind, f"limit {limit}"


@pytest.mark.parametrize(
    "cfg",
    [
        SynthesisConfig(input_depth=2, unroll_depth=2),
        SynthesisConfig(input_depth=3, unroll_depth=4, int_domain=(2,)),
    ],
    ids=["depth2-unroll2", "depth3-unroll4"],
)
def test_memoized_scan_matches_reference_at_depth_limit(lang_expected_text, cfg):
    """A memoized result is reused only at the nesting it was computed at:
    deeper down, the reference evaluator may run out of depth instead."""
    from synrec.cegis import verify
    from synrec.evaluator import format_value

    exp = expand_program(parse_program(lang_expected_text), ExpansionContext())
    memoized = verify(exp, {}, cfg)
    reference = reference_verify(exp, {}, cfg)
    assert not reference.passed
    assert not memoized.passed
    assert memoized.evaluations == reference.evaluations
    assert format_value(memoized.counterexample["exp"]) == format_value(
        reference.counterexample["exp"]
    )
    assert memoized.failure.kind == reference.failure.kind == "resource"
