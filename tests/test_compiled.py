"""Property tests pinning the compiled fast path to the reference evaluator."""

import random

import pytest

from synrec.ast import Ctor, Let, walk
from synrec.cegis import (
    _FAILURES,
    SynthesisConfig,
    SynthesisStats,
    _failure,
    _search,
    compile_run,
    iter_inputs,
    run_cegis,
    total_assignment,
    verify,
)
from synrec import compiled
from synrec.compiled import CAssertFail, CExhausted, CInfeasible, compile_concrete
from synrec.evaluator import EvalLimits, evaluate_harness, format_value
from synrec.expand import expand_program
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
from synrec.scaling import scaling_benchmark
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
    read = total_assignment(exp, phi).__getitem__
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
    phis = [total_assignment(exp, {})]
    for _ in range(n):
        phis.append(
            {p.id: rng.randint(p.lo, p.hi) for p in exp.control_space}
        )
    return phis


def _toy_or_scaling(source):
    """A toy program, or `scalingN`: the scaling family member with N
    source variants, where instances of one template share compiled code
    (at N = 8, the seven unary arms share one chunk)."""
    if source.startswith("scaling"):
        return load_with_library(scaling_benchmark(int(source.removeprefix("scaling"))))
    return parse_program(getattr(toys, source))


@pytest.mark.parametrize("source", ["PARITY", "SHIFT", "GAMMA", "scaling3", "scaling8"])
@pytest.mark.parametrize("decompose", [False, True])
def test_compiled_matches_reference(source, decompose):
    exp = expand_program(_toy_or_scaling(source), SynthesisConfig().expansion_context())
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
    exp = expand_program(parse_program(lang_expected_text), SynthesisConfig().expansion_context())
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
    exp = expand_program(parse_program(lang_expected_text), SynthesisConfig().expansion_context())
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
    exp = expand_program(parse_program(text), SynthesisConfig().expansion_context())
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
    exp = expand_program(parse_program(lang_expected_text), SynthesisConfig().expansion_context())
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


def test_scaling8_unary_arms_share_one_chunk(monkeypatch):
    """The program compiles in one piece, and each instance that stays a
    `_Use` in a choice arm compiles on its first run.  Selecting `cons?`
    and `AddD` in each unary arm of `lower` runs the two instances that
    build its fields (the literal arm builds `LitD` from `e.v`).  The
    fourteen instances differ only in control ids and names, so their chunk
    is compiled once, and each runs the same bytecode with its own control
    ids.  They come from several templates: instances share a chunk by
    their compiled text, not by their template."""
    exp = expand_program(
        load_with_library(scaling_benchmark(8)), SynthesisConfig().expansion_context()
    )
    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(compiled, "compile", counting_compile, raising=False)
    templates = []
    compile_arm = compiled._Compiler.arm

    def recording_arm(self, name, tpl, *args):
        templates.append(tpl)
        return compile_arm(self, name, tpl, *args)

    monkeypatch.setattr(compiled._Compiler, "arm", recording_arm)
    prog = compile_concrete(exp.program)
    assert len(sources) == 1  # the program's functions
    phi = dict(exp.defaults)
    arms = exp.program.function("lower").body.arms
    for arm in arms:
        top = arm.body.body  # `let a = ...; return choose(..., cons?)`
        phi[top.cp] = 1
        if arm.variant != "Lit":
            phi[top.arms[1].cp] = 1  # `AddD`
    for arm in arms[1:]:
        prog.bind_controls(phi.__getitem__)
        try:
            prog.func("main")((arm.variant, ("Lit", 0)))
        except CAssertFail:
            pass
    assert len(sources) == 2  # and one chunk
    made = [f.__code__ for name, f in prog.namespace.items() if name.startswith("_u")]
    made = [c for c in made if c.co_name == "chunk"]
    assert len(made) == 14
    assert len({c.co_code for c in made}) == 1
    assert len({c.co_consts for c in made}) == 14
    assert len(templates) == 14 and len(set(map(id, templates))) > 1


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
    for name in ("PARITY", "SHIFT", "GAMMA", "elimBool", "lang", "scaling3", "scaling8")
    for decompose in (False, True)
] + [("SPILL", False), ("FORCED", True)]


def _search_case(name, decompose):
    """The expansion (decomposed or not), its configuration, shape, inputs
    and search program of one of `SEARCH_CASES`."""
    if name in ("elimBool", "lang"):
        program = load_with_library(corpus_text(name))
    elif name in ("SPILL", "FORCED"):
        program = parse_program({"SPILL": SPILL, "FORCED": FORCED}[name])
    else:
        program = _toy_or_scaling(name)
    cfg = SynthesisConfig(input_depth=3 if name == "FORCED" else 2)
    exp = expand_program(program, cfg.expansion_context())
    harness = exp.program.harnesses[0]
    shape = None
    if decompose:
        shape = detect_spec_shape(exp.program, harness)
        report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
        exp = apply_inductive_decomposition(exp, shape, report)
    inputs = list(iter_inputs(exp.program, harness, cfg))
    return exp, cfg, shape, inputs, search_program(exp, cfg, shape)


@pytest.mark.parametrize("name,decompose", SEARCH_CASES)
def test_compiled_search_takes_reference_path(name, decompose):
    """On seeded counterexample lists, the compiled search binds, reads
    and evaluates exactly as the tree-walking search does."""
    exp, cfg, shape, inputs, compiled = _search_case(name, decompose)
    harness = exp.program.harnesses[0]
    rng = random.Random(f"{name}-{decompose}")
    for _ in range(6):
        cexs = rng.sample(inputs, rng.randint(1, min(4, len(inputs))))
        sigmas = [reference_sigma(exp.program, harness, args) for args in cexs]
        got, want = SynthesisStats(), SynthesisStats()
        binder, found = _search(exp, compiled, cexs, None, got)
        ref, ref_found = reference_search(exp, sigmas, cfg, shape, None, want, harness)
        assert found == ref_found
        assert binder.bound == ref.bound
        assert binder.trail == ref.trail
        assert got.search_evaluations == want.search_evaluations


@pytest.mark.parametrize("name,decompose", SEARCH_CASES)
def test_resumed_search_ends_where_a_fresh_one_does(name, decompose):
    """A search resumed on a longer counterexample list from the solution
    of a search on its prefix ends with the fresh search's binder, and the
    two runs make exactly the fresh search's evaluations."""
    exp, _, _, inputs, compiled = _search_case(name, decompose)
    # the lists of `test_compiled_search_takes_reference_path`, split at
    # every point
    rng = random.Random(f"{name}-{decompose}")
    for _ in range(6):
        cexs = rng.sample(inputs, rng.randint(1, min(4, len(inputs))))
        fresh = SynthesisStats()
        want, want_found = _search(exp, compiled, cexs, None, fresh)
        for k in range(1, len(cexs)):
            first, resumed = SynthesisStats(), SynthesisStats()
            binder, found = _search(exp, compiled, cexs[:k], None, first)
            if found:
                binder, found = _search(exp, compiled, cexs, None, resumed, binder, k)
            assert found == want_found
            assert binder.bound == want.bound
            assert binder.trail == want.trail
            assert fresh.search_evaluations == (
                first.search_evaluations + resumed.search_evaluations
            )


def _memo_split(text, decompose=True):
    """The program compiled as a synthesis run compiles it, its memoized
    functions, and those whose tables a failed candidate clears."""
    cfg = SynthesisConfig(input_depth=2, indecomp=decompose)
    prep = prepare(load_with_library(text), cfg)
    prog, _, _ = compile_run(prep.expanded, cfg, prep.shape, prep.report)

    def owners(tables):
        ids = {id(t) for t in tables}
        return {
            name.removeprefix("_memo_")
            for name, value in prog.namespace.items()
            if name.startswith("_memo_") and all(id(t) in ids for t in value)
        }

    return prog, owners(prog.memos), owners(prog.candidate_memos)


def test_failed_candidate_keeps_only_input_only_memo_tables():
    """On `lang` the source interpreter reads no control point and nothing
    builds a source tree, so its tables survive a failed candidate; the
    translation and the destination interpreter read the candidate."""
    prog, memoized, cleared = _memo_split(corpus_text("lang"))
    assert memoized == {"srcInterpret", "dstInterpret", "desugar"}
    assert cleared == {"dstInterpret", "desugar"}
    assert len(prog.memos) == 18 and len(prog.candidate_memos) == 12
    # without decomposition, the destination interpreter reads no control,
    # but the translation builds its trees
    assert _memo_split(corpus_text("lang"), decompose=False)[2] == cleared


def test_memo_table_of_a_source_interpreter_with_a_hole_is_cleared():
    text = toys.PARITY.replace(
        "case S1: if (parity(x.p) != 0)", "case S1: if (parity(x.p) != ??)"
    )
    assert text != toys.PARITY
    _, memoized, cleared = _memo_split(text)
    assert "parity" in memoized and "parity" in cleared
    assert "parity" not in _memo_split(toys.PARITY)[2]


def test_memo_table_over_a_constructed_adt_is_cleared():
    """A function over an ADT that the program builds gets new trees on
    every run: its table is cleared even though it reads no control."""
    text = toys.PARITY.replace(
        "assert(parity(x) == flagRun(encode(x)));",
        "assert(parity(x) == flagRun(encode(x)));\n"
        "  assert(parity(new S1(p = x)) == 1 - parity(x));",
    )
    assert text != toys.PARITY
    _, memoized, cleared = _memo_split(text)
    assert "parity" in memoized and "parity" in cleared


def test_spill_keeps_the_first_read_first():
    exp = expand_program(parse_program(SPILL), SynthesisConfig().expansion_context())
    body = list(walk(exp.program.function("main").body))
    (ctor,) = [n for n in body if isinstance(n, Ctor)]
    (let,) = [n for n in body if isinstance(n, Let)]
    binder, _ = _search(
        exp, search_program(exp, SynthesisConfig()), [(("Z",),)], None, SynthesisStats()
    )
    assert binder.trail == [dict(ctor.fields)["a"].cp, let.value.cp]
