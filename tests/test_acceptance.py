"""Acceptance suite: one test per criterion, with measurements printed.

Heavy artifacts (the depth-3 runs of the running example in both modes and
the depth-3 oracle check) are computed once per session and shared.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.
"""

import dataclasses
import itertools
import time

import pytest

from synrec.ast import INT, AdtType, ArrayType, RecordType
from synrec.cegis import (
    _to_reference,
    SynthesisConfig,
    enumerate_values,
    run_cegis,
    synthesize_inductive,
    verify,
)
from synrec.evaluator import EvalLimits, evaluate_harness, format_value
from synrec.expand import ExpansionContext, Expander, _Path, expand_program
from synrec.indecomp import (
    MORPHISM,
    apply_inductive_decomposition,
    classify_transformer,
    count_self_calls,
    detect_spec_shape,
)
from synrec.parser import parse_program
from synrec.pipeline import check_concrete, load_with_library, prepare
from synrec.scaling import scaling_benchmark
from synrec.typesys import TypeEnv, check_type

import toys
from conftest import corpus_text, search_program

CORPUS_NAMES = ("elimBool", "lIns", "lang", "tIns")


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def lang_prepared():
    cfg = SynthesisConfig()
    program = load_with_library(corpus_text("lang"))
    return prepare(program, cfg), cfg


@pytest.fixture(scope="session")
def lang_opt(lang_prepared):
    prep, cfg = lang_prepared
    start = time.monotonic()
    res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    return res, time.monotonic() - start


@pytest.fixture(scope="session")
def lang_unopt(lang_prepared):
    prep, cfg = lang_prepared
    cfg = dataclasses.replace(cfg, indecomp=False, timeout_secs=600)
    start = time.monotonic()
    res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    return res, time.monotonic() - start


# -- criterion 1: running example end-to-end ------------------------------------------


def test_criterion_1_running_example(lang_opt):
    res, elapsed = lang_opt
    assert res.solved, "running example must synthesize"
    # The synthesized program passed the bounded check at depth 3 /
    # ints {0,1,2} inside run_cegis.  The known-good solution passes the
    # same bounded check (by value classes, which give the exhaustive
    # scan's verdict), and the harness pins dstInterpret . desugar to
    # srcInterpret, so both programs are bounded-equivalent.
    cfg = SynthesisConfig()
    assert cfg.input_depth == 3 and cfg.int_domain == (0, 1, 2)
    oracle = check_concrete(corpus_text("lang.expected"), cfg, lib_text="")
    assert oracle.passed, "the reference solution must pass the depth-3 check"
    solution = res.solution.function("desugar")
    assert solution is not None
    ok = elapsed <= 120
    report(
        1,
        ok and res.solved,
        f"solved in {elapsed:.1f}s (budget 120s), "
        f"{res.stats.candidate_evaluations} evaluations, "
        f"oracle re-check over {oracle.evaluations} inputs",
    )
    assert ok, f"expected <= 120 s, took {elapsed:.1f}s"


# -- criterion 2: golden expansions -----------------------------------------------------


def test_criterion_2_golden_expansions(lang_prepared):
    from synrec.ast import ArrayLit, Choice, Ctor, FieldAccess, FieldsOf, FlexSwitch, Hole, IntLit, Switch, Var

    prep, cfg = lang_prepared
    program = load_with_library(corpus_text("lang"))
    ex = Expander(program, cfg.expansion_context())
    env = TypeEnv(program)
    src = AdtType("srcAST")

    nums = env.bind("src", RecordType("NumS", (("v", INT),)))
    got = ex.expand_field_list(nums, FieldsOf(Var("src")), ArrayType(src))
    assert got == ArrayLit(())

    between = program.adt("srcAST").variant("BetweenS").record_type()
    env_b = env.bind("src", between)
    got = ex.expand_field_list(env_b, FieldsOf(Var("src")), ArrayType(src))
    assert got == ArrayLit(
        (FieldAccess(Var("src"), "a"), FieldAccess(Var("src"), "b"), FieldAccess(Var("src"), "c"))
    )

    got = ex.expand_flex_match(env.bind("x", src), FlexSwitch("x", IntLit(0)), INT, _Path())
    assert isinstance(got, Switch)
    assert [a.variant for a in got.arms] == ["NumS", "TrueS", "FalseS", "BinaryS", "BetweenS"]

    from synrec.ast import UnknownCtor

    got = ex.expand(env.bind("e", src), UnknownCtor((Var("e"),)), AdtType("opcode"), _Path())
    assert isinstance(got, Choice)
    assert got.arms == (Ctor("AndOp", ()), Ctor("OrOp", ()), Ctor("LtOp", ()))

    got = ex.expand(env, UnknownCtor(()), INT, _Path())
    assert isinstance(got, Hole) and got.ty == INT
    report(2, True, "FL/FPM/UC1/UC2 match the documented expansions structurally")


# -- criterion 3: expansion well-typedness over the corpus -------------------------------


def test_criterion_3_corpus_well_typedness():
    checked = 0
    sources = [corpus_text(n) for n in CORPUS_NAMES]
    sources.append(corpus_text("lang.expected"))
    sources += [scaling_benchmark(n) for n in range(3, 9)]
    for text in sources:
        program = load_with_library(text)
        expanded = expand_program(program, ExpansionContext())
        for f in expanded.program.functions:
            env = TypeEnv(expanded.program)
            for pname, pty in f.params:
                env = env.bind(pname, pty)
            check_type(env, f.body, f.ret)
            checked += 1
    report(3, True, f"{checked} expanded functions type-check at their declared types")


# -- criterion 4: inductive decomposition theorem, brute force ----------------------------


def _phi_space(exp):
    points = exp.control_space
    for combo in itertools.product(*(range(p.lo, p.hi + 1) for p in points)):
        yield dict(zip((p.id for p in points), combo))


def _sigma_space(exp, depth):
    cfg = SynthesisConfig(input_depth=depth)
    harness = exp.program.harnesses[0]
    pools = [enumerate_values(exp.program, t, depth, cfg) for _, t in harness.params]
    names = [n for n, _ in harness.params]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


@pytest.mark.parametrize("toy_name", ["PARITY", "SHIFT"])
def test_criterion_4_decomposition_theorem(toy_name):
    limits = EvalLimits(max_depth=30)
    exp = expand_program(parse_program(getattr(toys, toy_name)), ExpansionContext())
    space = 1
    for p in exp.control_space:
        space *= p.arity
    assert space <= 10**5
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report_cls = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
    dec = apply_inductive_decomposition(exp, shape, report_cls)
    sigmas = list(_sigma_space(exp, 3))
    start = time.monotonic()

    def passing(program, decomp):
        out = set()
        for i, phi in enumerate(_phi_space(exp)):
            if all(
                evaluate_harness(program.program, phi, s, limits, decomposition=decomp).passed
                for s in sigmas
            ):
                out.add(i)
        return out

    plain = passing(exp, None)
    boxed = passing(dec, shape)
    elapsed = time.monotonic() - start
    assert plain == boxed
    assert elapsed <= 60
    report(
        4,
        True,
        f"{toy_name}: {space} assignments x {len(sigmas)} inputs, identical "
        f"passing sets ({len(plain)} assignments) in {elapsed:.1f}s",
    )


# -- criterion 5: morphism elimination ------------------------------------------------------


def test_criterion_5_morphism_elimination(lang_prepared):
    prep, _ = lang_prepared
    assert prep.report.verdict == MORPHISM
    dec = apply_inductive_decomposition(prep.expanded, prep.shape, prep.report)
    n = count_self_calls(dec.program.function("desugar"))
    report(5, n == 0, f"decomposed desugar contains {n} self-calls")
    assert n == 0


# -- criterion 6: acceleration proxy ---------------------------------------------------------


def _shape_detected(name):
    program = load_with_library(corpus_text(name))
    prep = prepare(program, SynthesisConfig())
    return prep.shape is not None


def test_criterion_6_acceleration_proxy(lang_opt, lang_unopt):
    detected = [n for n in CORPUS_NAMES if _shape_detected(n)]
    assert "lang" in detected and "elimBool" in detected
    evals = {}
    for name in detected:
        if name == "lang":
            continue
        text = corpus_text(name)
        program = load_with_library(text)
        prep = prepare(program, SynthesisConfig())
        opt = run_cegis(prep.expanded, SynthesisConfig(), prep.shape, prep.report)
        unopt = run_cegis(
            prep.expanded,
            dataclasses.replace(SynthesisConfig(), indecomp=False),
            prep.shape,
            prep.report,
        )
        assert opt.solved and unopt.solved
        evals[name] = (opt.stats.candidate_evaluations, unopt.stats.candidate_evaluations)
        assert evals[name][0] <= evals[name][1], name
    res_opt, t_opt = lang_opt
    res_unopt, t_unopt = lang_unopt
    assert res_opt.solved and res_unopt.solved
    evals["lang"] = (
        res_opt.stats.candidate_evaluations,
        res_unopt.stats.candidate_evaluations,
    )
    assert evals["lang"][0] <= evals["lang"][1]
    factor = t_unopt / t_opt
    detail = (
        f"evaluations opt<=unopt on {sorted(evals)}: "
        + ", ".join(f"{k}: {v[0]} <= {v[1]}" for k, v in sorted(evals.items()))
        + f"; lang wall {t_opt:.1f}s vs {t_unopt:.1f}s, measured factor {factor:.2f}x"
    )
    strictly_lower = t_opt < t_unopt
    report(6, strictly_lower and factor >= 2.0, detail)
    assert strictly_lower, detail
    # Desk-scale stand-in for the headline speedup claim: the run must be
    # at least twice as fast with the optimization.  At the pinned depth
    # the exhaustive bounded check dominates both modes on one core, so
    # this sub-criterion measures verification cost, not search cost.
    assert factor >= 2.0, detail


# -- criterion 7: scaling trend ----------------------------------------------------------------


def test_criterion_7_scaling_trend():
    cfg = SynthesisConfig(timeout_secs=120)
    walls_unopt, evals_unopt, ratios_evals, ratios_wall = [], [], [], []
    solved_unopt = []
    for n in range(3, 9):
        text = scaling_benchmark(n)
        program = load_with_library(text)
        prep = prepare(program, cfg)
        t0 = time.monotonic()
        opt = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
        t_opt = time.monotonic() - t0
        t0 = time.monotonic()
        unopt = run_cegis(
            prep.expanded, dataclasses.replace(cfg, indecomp=False), prep.shape, prep.report
        )
        t_unopt = time.monotonic() - t0
        assert opt.solved
        solved_unopt.append(unopt.solved)
        walls_unopt.append(t_unopt)
        evals_unopt.append(unopt.stats.candidate_evaluations)
        ratios_evals.append(
            unopt.stats.candidate_evaluations / max(1, opt.stats.candidate_evaluations)
        )
        ratios_wall.append(t_unopt / max(t_opt, 1e-3))
    # timeouts allowed only at the top of the range
    first_timeout = next((i for i, s in enumerate(solved_unopt) if not s), None)
    if first_timeout is not None:
        assert all(not s for s in solved_unopt[first_timeout:])
        walls_unopt = walls_unopt[:first_timeout]
        evals_unopt = evals_unopt[:first_timeout]
        ratios_evals = ratios_evals[:first_timeout]
    # deterministic counters grow strictly; wall grows up to timer noise
    assert all(b > a for a, b in zip(evals_unopt, evals_unopt[1:]))
    assert all(b >= a * 0.8 for a, b in zip(walls_unopt, walls_unopt[1:]))
    assert walls_unopt[-1] >= walls_unopt[0] * 5
    assert all(b > a for a, b in zip(ratios_evals, ratios_evals[1:]))
    assert ratios_wall[-1] >= 2 * ratios_wall[0]
    report(
        7,
        True,
        "no-decomposition wall "
        + "/".join(f"{w:.2f}s" for w in walls_unopt)
        + "; evaluation ratios "
        + "/".join(f"{r:.1f}x" for r in ratios_evals),
    )


# -- criterion 8: CEGIS properties ----------------------------------------------------------------


def test_criterion_8_cegis_properties():
    limits = EvalLimits(max_depth=12)
    cfg = SynthesisConfig(timeout_secs=60)
    exp = expand_program(parse_program(toys.SHIFT), ExpansionContext())
    harness = exp.program.harnesses[0]
    cexs = []
    seen = set()
    iterations = 0
    search = search_program(exp, cfg)
    while True:
        iterations += 1
        phi = synthesize_inductive(exp, search, cexs)
        assert phi is not None, "toy is satisfiable"
        vr = verify(exp, phi, cfg)
        if vr.passed:
            break
        sigma = vr.counterexample
        # progress: the counterexample fails the candidate that produced it
        out = evaluate_harness(exp.program, phi, sigma, limits)
        assert not out.passed
        key = format_value(sigma["l"])
        assert key not in seen, "counterexamples never repeat"
        seen.add(key)
        cexs.append(vr.args)
        assert iterations < 100
    # soundness: the solved assignment passes the full bounded check
    assert verify(exp, phi, cfg).passed

    # inductive-step completeness vs. exhaustive enumeration
    par = expand_program(parse_program(toys.PARITY), ExpansionContext())
    z = ("Z",)
    s = lambda x: ("S1", x)
    cexs = [(z,), (s(z),), (s(s(z)),)]
    sigmas = [{"x": _to_reference(par.program, x)} for x, in cexs]
    passing = []
    for combo in itertools.product(*(range(p.lo, p.hi + 1) for p in par.control_space)):
        cand = dict(zip((p.id for p in par.control_space), combo))
        if all(evaluate_harness(par.program, cand, sg, limits).passed for sg in sigmas):
            passing.append(cand)
    got = synthesize_inductive(par, search_program(par, cfg), cexs)
    assert len(passing) == 1 and got == passing[0]
    unsat = expand_program(
        parse_program(
            "adt U { MkU {} } int f(int x) { return ??; } "
            "harness void m(int x) { assert(f(x) == 9); }"
        ),
        ExpansionContext(),
    )
    assert synthesize_inductive(unsat, search_program(unsat, cfg), [(0,)]) is None
    report(
        8,
        True,
        f"progress+soundness over {iterations} iterations; inductive step "
        "matches brute force (unique solution and unsat cases)",
    )


# -- criterion 9: corpus breadth ---------------------------------------------------------------------


def test_criterion_9_corpus_breadth(lang_opt):
    times = {}
    res, elapsed = lang_opt
    assert res.solved and elapsed <= 300
    times["lang"] = elapsed
    for name in ("elimBool", "lIns", "tIns"):
        program = load_with_library(corpus_text(name))
        cfg = SynthesisConfig()  # default config per the criterion
        prep = prepare(program, cfg)
        t0 = time.monotonic()
        out = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
        dt = time.monotonic() - t0
        assert out.solved, name
        assert dt <= 300, name
        times[name] = dt
    report(
        9,
        True,
        "; ".join(f"{k} solved in {v:.1f}s" for k, v in sorted(times.items())),
    )
