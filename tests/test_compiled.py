"""Property tests pinning the compiled fast path to the reference evaluator."""

import random

import pytest

from synrec.ast import Ctor, Let, walk
from synrec.cegis import (
    _FAILURES,
    SynthesisConfig,
    _failure,
    _search,
    _Stats,
    iter_inputs,
    run_cegis,
    total_assignment,
    verify,
)
from synrec.compiled import CAssertFail, CExhausted, CInfeasible, compile_concrete
from synrec.evaluator import EvalLimits, evaluate_harness, format_value
from synrec.expand import ExpansionContext, expand_program
from synrec.indecomp import (
    OTHER,
    ClassificationReport,
    apply_inductive_decomposition,
    classify_transformer,
    detect_spec_shape,
    value_class_blocker,
)
from synrec.parser import parse_program
from synrec.pipeline import load_with_library, prepare
import toys
from conftest import (
    CORPUS,
    corpus_text,
    reference_search,
    reference_sigma,
    reference_verify,
    search_program,
)

MAX_DEPTH = 12
LIMITS = EvalLimits(max_depth=MAX_DEPTH)


def outcomes_for(exp, phi, decomp, sigmas_ref, sigmas_native, harness):
    prog = compile_concrete(exp.program, shape=decomp, max_depth=MAX_DEPTH)
    read = total_assignment(exp.control_space, phi).__getitem__
    runner = prog.func(harness.name)
    got = []
    for args in sigmas_native:
        prog.bind_controls(read)
        try:
            runner(*args)
            got.append("pass")
        except CAssertFail:
            got.append("assert_failed")
        except (CInfeasible, IndexError):
            got.append("infeasible")
        except CExhausted:
            got.append("resource")
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
    sigmas_native = list(iter_inputs(exp.program, harness, cfg))
    sigmas_ref = [reference_sigma(exp.program, harness, args) for args in sigmas_native]
    rng = random.Random(7)
    for phi in sample_phis(exp, rng, 12):
        got, want = outcomes_for(exp, phi, decomp, sigmas_ref, sigmas_native, harness)
        assert got == want


def test_compiled_matches_reference_on_lang_solution(lang_expected_text):
    exp = expand_program(parse_program(lang_expected_text), ExpansionContext())
    cfg = SynthesisConfig(input_depth=2)
    harness = exp.program.harnesses[0]
    sigmas_native = list(iter_inputs(exp.program, harness, cfg))
    sigmas_ref = [reference_sigma(exp.program, harness, args) for args in sigmas_native]
    got, want = outcomes_for(exp, {}, None, sigmas_ref, sigmas_native, harness)
    assert got == want
    assert set(got) == {"pass"}


def test_memoized_scan_matches_reference(lang_expected_text):
    """Memo entries outlive the input that made them, as in `verify`, and
    every outcome still is the reference evaluator's, also at depth limits
    that some inputs reach."""
    exp = expand_program(parse_program(lang_expected_text), ExpansionContext())
    cfg = SynthesisConfig(input_depth=2)
    harness = exp.program.harnesses[0]
    inputs = list(iter_inputs(exp.program, harness, cfg))
    for limit in (2, 3, MAX_DEPTH):
        prog = compile_concrete(exp.program, max_depth=limit)
        prog.bind_controls({}.__getitem__)
        runner = prog.func(harness.name)
        got = []
        for args in inputs:
            try:
                runner(*args)
                got.append("pass")
            except _FAILURES as err:
                prog.namespace["_reset_depths"]()
                got.append(_failure(err).kind)
        assert any(prog.memos), "no memo entry was made"
        want = [
            evaluate_harness(
                exp.program, {}, reference_sigma(exp.program, harness, args), EvalLimits(limit)
            ).kind
            for args in inputs
        ]
        assert got == want, f"limit {limit}"


def test_depth_limit_matches_reference():
    text = """
    adt N { Z {} S { N p; } }
    int depth(N x) { switch (x) { case Z: return 0; case S: return 1 + depth(x.p); } }
    harness void m(N x) { assert(depth(x) >= 0); }
    """
    exp = expand_program(parse_program(text), ExpansionContext())
    harness = exp.program.harnesses[0]
    deep = ("Z",)
    for _ in range(6):
        deep = ("S", deep)
    for limit in (3, 6, 7, 10):
        ref = evaluate_harness(
            exp.program, {}, reference_sigma(exp.program, harness, (deep,)),
            EvalLimits(limit),
        )
        prog = compile_concrete(exp.program, max_depth=limit)
        try:
            prog.func("m")(deep)
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


def _decomposable(source):
    if source in toys.__dict__:
        return parse_program(getattr(toys, source))
    return load_with_library(corpus_text(source))


def _results(prog, name, inputs):
    """`name`'s result on each input, or the kind of its failure."""
    out = []
    for args in inputs:
        try:
            out.append(prog.call_at(name, 0, *args))
        except _FAILURES as err:
            out.append(_failure(err).kind)
    return out


def _verdict(vr):
    cex = vr.counterexample or {}
    return (
        vr.passed,
        vr.strategy,
        vr.args,
        {n: format_value(v) for n, v in cex.items()},
        vr.failure,
        vr.evaluations,
    )


# the toys, and every corpus program with an inductive shape
ONE_PROGRAM_SOURCES = ["PARITY", "SHIFT", "GAMMA"] + [
    path.stem
    for path in sorted(CORPUS.glob("*.synrec"))
    if prepare(load_with_library(path.read_text()), SynthesisConfig()).report
    not in (None, ClassificationReport(OTHER))
]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("source", ONE_PROGRAM_SOURCES)
def test_decomposed_program_with_translation_bound_checks_as_plain(source, depth):
    """The decomposed program compiled once, with its box builder bound to
    the translation, checks every candidate as the plain program does:
    same verdict, counterexample and evaluations, by the exhaustive scan
    and (where the blocker allows) by value classes, under the first-value
    assignment, four random ones and the solved one."""
    cfg = SynthesisConfig(input_depth=depth, timeout_secs=60)
    prep = prepare(_decomposable(source), cfg)
    exp, shape, report = prep.expanded, prep.shape, prep.report
    dec = apply_inductive_decomposition(exp, shape, report)
    one = compile_concrete(dec.program, shape, cfg.effective_unroll)
    one.bind_boxes(False)
    plain = compile_concrete(exp.program, None, cfg.effective_unroll)
    strategies = [None]
    if value_class_blocker(dec.program, shape, report) is None:
        strategies.append(shape)
    solved = run_cegis(exp, cfg, shape, report)
    assert solved.solved
    checked = 0
    trans_inputs = list(iter_inputs(exp.program, exp.program.function(shape.trans), cfg))
    phis = sample_phis(exp, random.Random(source), 4) + [solved.assignment]
    for phi in phis:
        for classes in strategies:
            got = _verdict(verify(exp, phi, cfg, classes, None, one))
            assert got == _verdict(verify(exp, phi, cfg, classes, None, plain))
            checked += got[-1]
        # no box escapes: the translation returns the plain program's trees
        results = []
        for prog in (one, plain):
            prog.bind_controls(phi.__getitem__)
            results.append(_results(prog, shape.trans, trans_inputs))
        assert results[0] == results[1]
    assert checked


# The constructor's first field reads a hole, and its second holds the
# inlined generator, a switch with a let in one arm: the compiled code runs
# the switch as statements, so the first field must be read ahead of it.
SPILL = """
adt nat { Z {} S { nat p; } }
adt pair { P { int a; int b; } }

generator int low(nat x) {
  switch (x) {
    case Z: int t = ??; return t + 1;
    case S: return ??;
  }
}

int sum(pair q) {
  switch (q) {
    case P: return q.a + q.b;
  }
}

harness void main(nat x) {
  assert(sum(new P(a = ??, b = low(x))) == 4);
}
"""

# PARITY with a helper of the destination interpreter that switches on a
# possibly boxed child and then passes the child on: the switch arms see
# the forced value, but the call after the switch still gets the box, so
# the decomposition rewrite runs `parity` instead of `flagRun`.
FORCED = """
adt nat { Z {} S1 { nat p; } }
adt flag { TrueV {} FalseV {} NotV { flag b; } }

int parity(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: if (parity(x.p) != 0) { return 0; } else { return 1; }
  }
}

generator int kind(flag g) {
  switch (g) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: return 2;
  }
}

int neg(flag g) {
  int k = kind(g);
  return 1 - flagRun(g) + k * 0;
}

int flagRun(flag f) {
  switch (f) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: return neg(f.b);
  }
}

flag encode(nat x) {
  switch (x) {
    case Z: return choose(new TrueV(), new FalseV());
    case S1: return choose(new NotV(b = encode(x.p)), new TrueV(), new FalseV());
  }
}

harness void main(nat x) {
  assert(parity(x) == flagRun(encode(x)));
}
"""

SEARCH_CASES = [
    (name, decompose)
    for name in ("PARITY", "SHIFT", "GAMMA", "elimBool", "lang")
    for decompose in (False, True)
] + [("SPILL", False), ("FORCED", True)]


@pytest.mark.parametrize("name,decompose", SEARCH_CASES)
def test_compiled_search_takes_reference_path(name, decompose):
    """On seeded counterexample lists, the compiled search binds, reads
    and evaluates exactly as the tree-walking search does."""
    if name in ("elimBool", "lang"):
        program = load_with_library(corpus_text(name))
    else:
        program = parse_program({"SPILL": SPILL, "FORCED": FORCED}.get(name) or getattr(toys, name))
    cfg = SynthesisConfig(input_depth=3 if name == "FORCED" else 2)
    exp = expand_program(program, cfg.expansion_context())
    harness = exp.program.harnesses[0]
    shape = None
    if decompose:
        shape = detect_spec_shape(exp.program, harness)
        report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
        exp = apply_inductive_decomposition(exp, shape, report)
    inputs = list(iter_inputs(exp.program, harness, cfg))
    compiled = search_program(exp, cfg, shape)
    rng = random.Random(f"{name}-{decompose}")
    for _ in range(6):
        cexs = rng.sample(inputs, rng.randint(1, min(4, len(inputs))))
        sigmas = [reference_sigma(exp.program, harness, args) for args in cexs]
        got, want = _Stats(), _Stats()
        binder, found = _search(exp, compiled, cexs, None, got)
        ref, ref_found = reference_search(exp, sigmas, cfg, shape, None, want, harness)
        assert found == ref_found
        assert binder.bound == ref.bound
        assert binder.trail == ref.trail
        assert got.candidate_evaluations == want.candidate_evaluations


def test_spill_keeps_the_first_read_first():
    exp = expand_program(parse_program(SPILL), ExpansionContext())
    body = list(walk(exp.program.function("main").body))
    (ctor,) = [n for n in body if isinstance(n, Ctor)]
    (let,) = [n for n in body if isinstance(n, Let)]
    binder, _ = _search(exp, search_program(exp, SynthesisConfig()), [(("Z",),)], None, _Stats())
    assert binder.trail == [dict(ctor.fields)["a"].cp, let.value.cp]
