import itertools
import logging

import pytest

from synrec import cegis
from synrec.ast import BIT, AdtType, Choice, Hole, replace, walk
from synrec.cegis import (
    SOLVED,
    TIMEOUT,
    UNSAT,
    SynthesisConfig,
    _to_reference,
    concretize,
    enumerate_values,
    run_cegis,
    synthesize_inductive,
    verify,
)
from synrec.evaluator import EvalLimits, VRecord, evaluate_harness, format_value
from synrec.expand import expand_program
from synrec.parser import parse_program
from synrec.pipeline import check_concrete, load_with_library, prepare, synthesize
from synrec.printer import pretty_print_program
from synrec.scaling import scaling_benchmark

import toys
from conftest import corpus_text, reference_verify, search_program, time_out_at_verify

LIMITS = EvalLimits(max_depth=12)


def expand_text(text, **kw):
    return expand_program(parse_program(text), SynthesisConfig(**kw).expansion_context())


# -- enumerate_values ------------------------------------------------------------


def test_enumerate_opcode_depth1(lang_program):
    cfg = SynthesisConfig()
    vals = enumerate_values(lang_program, AdtType("opcode"), 1, cfg)
    assert [v.variant for v in vals] == ["AndOp", "OrOp", "LtOp"]


def test_enumerate_srcast_depth1():
    p = load_with_library(corpus_text("lang"))
    cfg = SynthesisConfig(int_domain=(0, 1))
    vals = enumerate_values(p, AdtType("srcAST"), 1, cfg)
    assert [format_value(v) for v in vals] == [
        "NumS(v = 0)",
        "NumS(v = 1)",
        "TrueS()",
        "FalseS()",
    ]


def test_enumerate_bit_any_depth(lang_program):
    cfg = SynthesisConfig()
    for depth in (1, 2, 5):
        assert enumerate_values(lang_program, BIT, depth, cfg) == [0, 1]


def test_enumerate_no_duplicates_and_depth_major(lang_program):
    cfg = SynthesisConfig(int_domain=(0, 1))
    vals = enumerate_values(lang_program, AdtType("srcAST"), 2, cfg)
    keys = [format_value(v) for v in vals]
    assert len(keys) == len(set(keys))

    def depth(v):
        if not isinstance(v, VRecord):
            return 0
        return 1 + max((depth(x) for x in v.fields.values()), default=0)

    depths = [depth(v) for v in vals]
    assert depths == sorted(depths)


def test_enumerate_deterministic(lang_program):
    cfg = SynthesisConfig()
    a = enumerate_values(lang_program, AdtType("srcAST"), 2, cfg)
    b = enumerate_values(lang_program, AdtType("srcAST"), 2, cfg)
    assert [format_value(x) for x in a] == [format_value(x) for x in b]


def _exact_by_plain_product(program, ty, depth, cfg):
    """The values of `ty` of depth exactly `depth`, by definition: for each
    variant in declaration order, the plain product of its fields' values
    of lower depth, each pool depth-major, filtered to the combinations
    with a field of depth `depth - 1`."""

    def depth_of(v):
        return 1 + max(map(depth_of, v[1:]), default=0) if type(v) is tuple else 0

    if ty == BIT:
        return [0, 1] if depth == 0 else []
    if not isinstance(ty, AdtType):
        return list(cfg.int_domain) if depth == 0 else []
    out = []
    for variant in program.adt(ty.name).variants:
        pools = [
            [v for d in range(depth) for v in _exact_by_plain_product(program, t, d, cfg)]
            for _, t in variant.fields
        ]
        for combo in itertools.product(*pools):
            if depth_of((variant.name, *combo)) == depth:
                out.append((variant.name, *combo))
    return out


def test_enumerate_four_fields_is_the_filtered_plain_product():
    """A variant of four fields takes the general product of `_combos`."""
    p = parse_program(
        "adt Q { Leaf {} Four { Q a; bit b; Q c; int d; } }\n"
        "harness void m(Q q) { assert(1); }"
    )
    cfg = SynthesisConfig(int_domain=(0, 1), input_depth=3)
    en = cegis.Enumerator(p, cfg)
    for depth in (1, 2, 3):
        want = _exact_by_plain_product(p, AdtType("Q"), depth, cfg)
        assert list(en.iter_exact(AdtType("Q"), depth)) == want
    assert len(want) == 5 * 2 * 5 * 2 - 1 * 2 * 1 * 2
    inputs = list(cegis.iter_inputs(p, p.harnesses[0], cfg))
    assert inputs == [
        (v,) for d in (1, 2, 3) for v in _exact_by_plain_product(p, AdtType("Q"), d, cfg)
    ]


def test_inputs_of_a_harness_without_parameters():
    p = parse_program("adt U { MkU {} } harness void m() { assert(1); }")
    assert list(cegis.iter_inputs(p, p.harnesses[0], SynthesisConfig())) == [()]


def test_inputs_of_a_harness_with_only_primitive_parameters():
    p = parse_program("adt U { MkU {} } harness void m(int x, bit b, int y) { assert(1); }")
    cfg = SynthesisConfig(int_domain=(0, 1, 2))
    got = list(cegis.iter_inputs(p, p.harnesses[0], cfg))
    assert got == list(itertools.product((0, 1, 2), (0, 1), (0, 1, 2)))


# -- synthesize_inductive -----------------------------------------------------------


ARITH_TOY = """
adt U { MkU {} }
int f(int x) { return x + ??; }
harness void m(int x) { assert(f(1) == 3); }
"""


def test_effective_unroll_tracks_input_depth():
    assert SynthesisConfig().effective_unroll == 5
    assert SynthesisConfig(input_depth=6).effective_unroll == 8
    assert SynthesisConfig(input_depth=6, unroll_depth=4).effective_unroll == 4


def test_hole_forced_by_arithmetic():
    exp = expand_text(ARITH_TOY)
    cfg = SynthesisConfig()
    phi = synthesize_inductive(exp, search_program(exp, cfg), [(1,)])
    assert phi is not None
    (cp,) = [p.id for p in exp.control_space]
    assert phi[cp] == 2


def test_empty_cexs_gives_all_first_assignment():
    exp = expand_text(toys.PARITY)
    cfg = SynthesisConfig()
    phi = synthesize_inductive(exp, search_program(exp, cfg), [])
    assert phi == {p.id: p.lo for p in exp.control_space}


def test_unsat_when_no_assignment_works():
    exp = expand_text(
        "adt U { MkU {} } int f(int x) { return ??; } "
        "harness void m(int x) { assert(f(x) == 9); }"
    )
    cfg = SynthesisConfig()
    phi = synthesize_inductive(exp, search_program(exp, cfg), [(0,)])
    assert phi is None


def brute_force_passing(exp, sigmas, decomp=None):
    points = exp.control_space
    passing = []
    for combo in itertools.product(*(range(p.lo, p.hi + 1) for p in points)):
        phi = dict(zip((p.id for p in points), combo))
        if all(
            evaluate_harness(exp.program, phi, s, LIMITS, decomposition=decomp).passed
            for s in sigmas
        ):
            passing.append(phi)
    return passing


def test_inductive_step_matches_bruteforce_on_parity():
    """Completeness: the search agrees with exhaustive enumeration, and the
    parity toy has exactly one satisfying assignment."""
    exp = expand_text(toys.PARITY)
    cfg = SynthesisConfig()
    z = ("Z",)
    s = lambda x: ("S1", x)
    cexs = [(z,), (s(z),), (s(s(z)),)]
    sigmas = [{"x": _to_reference(exp.program, x)} for x, in cexs]
    passing = brute_force_passing(exp, sigmas)
    assert len(passing) == 1
    phi = synthesize_inductive(exp, search_program(exp, cfg), cexs)
    assert phi == passing[0]


def test_inductive_step_unsat_matches_bruteforce():
    text = """
    adt N2 { A {} B {} }
    N2 g(N2 x) { return choose(new A(), new B()); }
    int h(N2 x) { switch (x) { case A: return 0; case B: return 1; } }
    harness void m(N2 x) { assert(h(g(x)) == h(x)); }
    """
    exp = expand_text(text)
    cfg = SynthesisConfig()
    a = {"x": VRecord("A", {})}
    b = {"x": VRecord("B", {})}
    assert brute_force_passing(exp, [a, b]) == []
    assert synthesize_inductive(exp, search_program(exp, cfg), [(("A",),), (("B",),)]) is None


# -- verify ---------------------------------------------------------------------------


def test_verify_expected_solution_passes(lang_expected_text):
    exp = expand_text(lang_expected_text)
    cfg = SynthesisConfig(input_depth=2)
    vr = verify(exp, {}, cfg)
    assert vr.passed
    assert vr.evaluations == 205


def test_verify_counterexample_is_depth_minimal(lang_expected_text):
    text = lang_expected_text.replace(
        "case TrueS: return new BoolD(v = 1);", "case TrueS: return new BoolD(v = 0);"
    )
    exp = expand_text(text)
    cfg = SynthesisConfig(input_depth=3)
    vr = verify(exp, {}, cfg)
    assert not vr.passed
    assert format_value(vr.counterexample["exp"]) == "TrueS()"


def test_verify_reference_and_compiled_agree(lang_expected_text):
    mutant = lang_expected_text.replace("op = new AndOp()", "op = new OrOp()")
    exp = expand_text(mutant)
    fast = verify(exp, {}, SynthesisConfig(input_depth=2))
    slow = reference_verify(exp, {}, SynthesisConfig(input_depth=2))
    assert not fast.passed and not slow.passed
    assert format_value(fast.counterexample["exp"]) == format_value(
        slow.counterexample["exp"]
    )
    assert fast.evaluations == slow.evaluations


def test_verify_short_circuit_agrees_with_reference():
    exp = expand_text(toys.SHORT_CIRCUIT)
    cfg = SynthesisConfig(input_depth=2)
    fast = verify(exp, {}, cfg)
    slow = reference_verify(exp, {}, cfg)
    assert fast.passed and slow.passed
    assert fast.evaluations == slow.evaluations == 2


def test_verify_tautology_with_empty_space():
    p = parse_program("adt L { N {} } harness void m(L l) { assert(1); }")
    exp = expand_program(p, SynthesisConfig().expansion_context())
    vr = verify(exp, {}, SynthesisConfig(input_depth=2))
    assert vr.passed and vr.evaluations == 1


# -- run_cegis --------------------------------------------------------------------------


def test_cegis_solves_parity_and_respects_progress():
    exp = expand_text(toys.PARITY)
    cfg = SynthesisConfig(timeout_secs=30)
    res = run_cegis(exp, cfg)
    assert res.solved
    keys = res.stats.counterexamples
    assert len(keys) == len(set(keys))
    vr = verify(exp, res.assignment, cfg)
    assert vr.passed


def test_cegis_unsat_on_inconsistent_harness():
    p = parse_program("adt L { N {} } harness void m(L l) { assert(1 == 2); }")
    exp = expand_program(p, SynthesisConfig().expansion_context())
    res = run_cegis(exp, SynthesisConfig(timeout_secs=10))
    assert res.status == "unsat"
    assert res.stats.iterations <= 2


def test_cegis_timeout_reports_partial():
    exp = expand_text(toys.PARITY)
    cfg = SynthesisConfig(timeout_secs=1e-9)
    res = run_cegis(exp, cfg)
    assert res.status == "timeout"


def test_cegis_per_arm_stats(lang_program):
    cfg = SynthesisConfig(input_depth=2, timeout_secs=120)
    prep_exp = expand_program(lang_program, cfg.expansion_context())
    from synrec.indecomp import classify_transformer, detect_spec_shape

    shape = detect_spec_shape(prep_exp.program, prep_exp.program.harnesses[0])
    report = classify_transformer(prep_exp.program.function("desugar"), "srcAST")
    res = run_cegis(prep_exp, cfg, shape, report)
    assert res.solved
    assert [a.variant for a in res.stats.per_arm] == [
        "NumS",
        "TrueS",
        "FalseS",
        "BinaryS",
        "BetweenS",
    ]
    assert all(a.solved for a in res.stats.per_arm)


# Both arms of `shift` read the one hole of `off`: alone, the SNil arm
# binds it to 1 and the SCons arm to 2.
SHARED_HOLE_SHIFT = """
adt slist { SNil {} SCons { int h; slist t; } }
adt dlist { DNil {} DCons { int h; dlist t; } }

int sumS(slist l) {
  switch (l) {
    case SNil: return 1;
    case SCons: return l.h + 2 + sumS(l.t);
  }
}

int sumD(dlist l) {
  switch (l) {
    case DNil: return 0;
    case DCons: return l.h + sumD(l.t);
  }
}

int off() { return ??; }

dlist shift(slist l) {
  switch (l) {
    case SNil: return new DCons(h = choose(off(), 1), t = new DNil());
    case SCons: return new DCons(h = l.h + off(), t = shift(l.t));
  }
}

harness void main(slist l) {
  assert(sumS(l) == sumD(shift(l)));
}
"""


def test_per_arm_solutions_sharing_a_hole_fall_back_to_joint_search(caplog):
    cfg = SynthesisConfig(input_depth=2)
    prep = prepare(load_with_library(SHARED_HOLE_SHIFT), cfg)
    assert prep.report.is_morphism
    with caplog.at_level(logging.WARNING, logger="synrec"):
        res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    assert "per-arm decoupling failed" in caplog.text
    assert res.solved
    assert (res.stats.iterations, res.stats.candidate_evaluations) == (3, 32)
    # the per-arm solver ran before the fallback, so its arms are reported
    assert [(a.variant, a.solved) for a in res.stats.per_arm] == [
        ("SNil", True),
        ("SCons", True),
    ]
    solution = pretty_print_program(res.solution)
    assert "int off() {\n  return 2;\n}" in solution
    assert check_concrete(SHARED_HOLE_SHIFT, cfg, solution_text=solution).passed


def test_per_arm_solved_on_timeout(lang_program, monkeypatch):
    """A run cut short reports as solved the arms whose search found an
    assignment, and no others."""
    cfg = SynthesisConfig(input_depth=2, timeout_secs=120)
    prep = prepare(lang_program, cfg)
    time_out_at_verify(monkeypatch, 3)
    res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    assert (res.status, res.stats.iterations) == (TIMEOUT, 3)
    assert [(a.variant, a.solved) for a in res.stats.per_arm] == [
        ("NumS", True),
        ("TrueS", True),
        ("FalseS", False),
        ("BinaryS", False),
        ("BetweenS", False),
    ]


def test_per_arm_solved_on_unsat():
    """An unsat decomposed run keeps the verdict of each arm it searched;
    the plain search that settles the verdict changes none of them."""
    (n, depth, unroll), _, status, _, _ = FALLBACKS["exhausted"]
    cfg = SynthesisConfig(input_depth=depth, unroll_depth=unroll, timeout_secs=60)
    res = synthesize(scaling_benchmark(n), cfg)
    assert res.status == status == UNSAT
    assert [(a.variant, a.solved) for a in res.stats.per_arm] == [
        ("Lit", True),
        ("Inc", False),
        ("Dbl", False),
    ]


# Scaling programs at bounds where the decomposed and plain semantics part
# at the depth limit: (variants, input depth, unroll depth), the warning
# of the decomposed run, and its status, iterations and evaluations.
FALLBACKS = {
    "divergence": ((4, 2, 2), "decomposed/plain divergence", SOLVED, 10, 676),
    "exhausted": ((3, 2, 1), "decomposed search exhausted", UNSAT, 3, 79),
    "late-divergence": ((5, 3, 3), "decomposed/plain divergence", SOLVED, 13, 6041),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_decomposition_fallbacks(case, monkeypatch, caplog):
    """A dropped decomposition searches on the run's one compiled program,
    with its boxes bound to the translation, and ends where the run without
    decomposition does."""
    (n, depth, unroll), warning, status, iterations, evaluations = FALLBACKS[case]
    compiles = []
    compile_concrete = cegis.compile_concrete

    def counting(*args):
        compiles.append(args)
        return compile_concrete(*args)

    monkeypatch.setattr(cegis, "compile_concrete", counting)
    runs = {}
    for indecomp in (True, False):
        compiles.clear()
        caplog.clear()
        # a search that replays stale memo entries runs into the timeout
        cfg = SynthesisConfig(
            input_depth=depth, unroll_depth=unroll, timeout_secs=60, indecomp=indecomp
        )
        with caplog.at_level(logging.WARNING, logger="synrec"):
            res = synthesize(scaling_benchmark(n), cfg)
        runs[indecomp] = res, len(compiles), caplog.text
    (dec, dec_compiles, dec_log), (plain, plain_compiles, plain_log) = runs[True], runs[False]
    assert warning in dec_log and not plain_log
    assert (dec.status, dec.stats.iterations, dec.stats.candidate_evaluations) == (
        status, iterations, evaluations
    )
    assert (dec_compiles, plain_compiles) == (1, 1)
    assert plain.status == status
    if status == SOLVED:
        assert pretty_print_program(dec.solution) == pretty_print_program(plain.solution)


def test_decomposition_reduces_search_evaluations(lang_program):
    cfg = SynthesisConfig(input_depth=2, timeout_secs=120)
    exp = expand_program(lang_program, cfg.expansion_context())
    from synrec.indecomp import classify_transformer, detect_spec_shape

    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function("desugar"), "srcAST")
    with_dec = run_cegis(exp, cfg, shape, report)

    without = run_cegis(exp, replace(cfg, indecomp=False), shape, report)
    assert with_dec.solved and without.solved
    assert (
        with_dec.stats.candidate_evaluations <= without.stats.candidate_evaluations
    )


# -- concretize -------------------------------------------------------------------------


def test_concretize_identity_on_empty_space(lang_expected_text):
    exp = expand_text(lang_expected_text)
    out = concretize(exp, {})
    assert out == exp.program


def test_concretize_no_controls_and_typechecks():
    exp = expand_text(toys.SHIFT)
    cfg = SynthesisConfig(timeout_secs=30)
    res = run_cegis(exp, cfg)
    assert res.solved
    for f in res.solution.functions:
        assert not any(isinstance(n, (Hole, Choice)) for n in walk(f.body))


def test_concretize_coherence_reparse_and_recheck():
    """The printed solution re-parses and passes bounded verification."""
    exp = expand_text(toys.SHIFT)
    cfg = SynthesisConfig(timeout_secs=30)
    res = run_cegis(exp, cfg)
    text = pretty_print_program(res.solution)
    vr = check_concrete(text, cfg, lib_text="")
    assert vr.passed


def test_solved_phi_behaviour_matches_concretized():
    """Concretize faithfulness: harness outcomes agree on every bounded input."""
    exp = expand_text(toys.SHIFT)
    cfg = SynthesisConfig(input_depth=3, timeout_secs=30)
    res = run_cegis(exp, cfg)
    conc = expand_program(res.solution, cfg.expansion_context())
    sigmas = [
        {"l": v}
        for v in enumerate_values(exp.program, AdtType("slist"), 3, cfg)
    ]
    for sigma in sigmas:
        a = evaluate_harness(exp.program, res.assignment, sigma, LIMITS)
        b = evaluate_harness(conc.program, {}, sigma, LIMITS)
        assert a.passed == b.passed
