"""The one-pass analysis of `synrec.indecomp` against the earlier
three-walk analysis (`indecomp_oracle`): same verdicts, details,
decomposed programs and value-class blockers."""

import pytest

from synrec.ast import (
    STANDARD,
    AdtType,
    ArrayLit,
    Assert,
    BinOp,
    Call,
    Choice,
    Ctor,
    FieldAccess,
    FuncDecl,
    If,
    Index,
    IntLit,
    Let,
    Switch,
    SwitchArm,
    UnOp,
    Var,
)
from synrec.cegis import SynthesisConfig
from synrec.expand import ExpandedProgram, expand_program
from synrec.instances import force_expansion
from synrec.indecomp import (
    MORPHISM,
    OTHER,
    TRANSFORMER,
    apply_inductive_decomposition,
    classify_transformer,
    detect_spec_shape,
)
from synrec.parser import parse_program
from synrec.pipeline import load_with_library
from synrec.scaling import scaling_benchmark

import indecomp_oracle as oracle
import toys
from conftest import corpus_text

SOURCES = {
    **{name: corpus_text(name) for name in ("elimBool", "lIns", "lang", "lang.expected", "tIns")},
    **{f"scaling{n}": scaling_benchmark(n) for n in range(3, 9)},
    **{
        name: getattr(toys, name)
        for name in ("PARITY", "SHIFT", "GAMMA", "SHORT_CIRCUIT", "LAZY_SELF_CALL")
    },
}


@pytest.mark.parametrize("inline_bound", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_pass_matches_three_walks(name, inline_bound):
    """The one-pass analysis runs on the expansion, whose instances in
    choice arms stay `_Use`s, and the three walks on it forced in full."""
    ctx = SynthesisConfig(inline_bound=inline_bound).expansion_context()
    exp = expand_program(load_with_library(SOURCES[name]), ctx)
    program, forced = exp.program, force_expansion(exp).program
    # every function against the ADT of its first parameter
    for fn, full in zip(program.functions, forced.functions):
        if fn.params and isinstance(fn.params[0][1], AdtType):
            adt = fn.params[0][1].name
            new, old = classify_transformer(fn, adt), oracle.classify_transformer(full, adt)
            assert (new.verdict, new.details) == (old.verdict, old.details), fn.name
    shape = detect_spec_shape(program, program.harnesses[0])
    assert shape == detect_spec_shape(forced, forced.harnesses[0])
    if shape is None:
        return
    report = classify_transformer(program.function(shape.trans), shape.source_adt)
    dec = apply_inductive_decomposition(exp, shape, report)
    if report.verdict == OTHER:
        assert dec.program is program and not dec.decomposed
        return
    full_report = classify_transformer(forced.function(shape.trans), shape.source_adt)
    assert report.facts.param_uses == full_report.facts.param_uses
    old_program = oracle.decompose(forced, shape, full_report)
    assert force_expansion(dec).program == old_program
    assert dec.blocker == oracle.value_class_blocker(old_program, shape, full_report)


def test_every_source_expands_and_decomposes():
    """The sources give the differential test above morphisms, and
    decompositions both with and without a value-class blocker."""
    verdicts, blockers = set(), set()
    for text in SOURCES.values():
        exp = expand_program(load_with_library(text), SynthesisConfig().expansion_context())
        shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
        if shape is not None:
            report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
            verdicts.add(report.verdict)
            blockers.add(apply_inductive_decomposition(exp, shape, report).blocker)
    assert MORPHISM in verdicts
    assert None in blockers and len(blockers) > 1


# -- hand-written taint cases ----------------------------------------------------

L = AdtType("L")
X = Var("x")


def _rec(label="t", *extra):
    return Call("f", (FieldAccess(X, label), *extra))


def _leaf(e):
    """A constructor that embeds `e`."""
    return Ctor("C", (("h", IntLit(0)), ("t", e), ("u", FieldAccess(X, "u"))))


def _f(arm):
    """`f` over lists `L`, whose C arm is `arm`."""
    body = Switch("x", (SwitchArm("N", Ctor("N", ())), SwitchArm("C", arm)))
    return FuncDecl(STANDARD, "f", (), (("x", L),), L, body)


# each passes the value of `e` on
CARRIERS = {
    "let": lambda e: Let("r", L, e, Var("r")),
    "array": lambda e: ArrayLit((e,)),
    "choice": lambda e: Choice((e, X)),
    "if": lambda e: If(BinOp("<", IntLit(0), FieldAccess(X, "h")), X, e),
    "switch": lambda e: Switch("x", (SwitchArm("N", X), SwitchArm("C", e))),
    "index-base": lambda e: Index(ArrayLit((X, e)), IntLit(1)),
}
# each puts the value of `e` where it is inspected
INSPECTORS = {
    "operand": lambda e: BinOp("==", e, X),
    "negation": lambda e: UnOp("!", e),
    "condition": lambda e: If(e, X, FieldAccess(X, "u")),
    "assert": lambda e: Let("_", L, Assert(e), X),
    "index": lambda e: Index(ArrayLit((X,)), e),
    "scrutinee": lambda e: Let("s", L, e, Switch("s", (SwitchArm("N", X), SwitchArm("C", X)))),
    "field-base": lambda e: FieldAccess(e, "t"),
    "call-argument": lambda e: Call("g", (e,)),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_taint_passes_through(carrier):
    # embedded in a constructor: a morphism; inspected: a transformer only;
    # an inspected field of the input beside an embedded result: a morphism
    wrap = CARRIERS[carrier]
    cases = [(_leaf(wrap(_rec())), MORPHISM)]
    cases += [(_leaf(look(wrap(_rec()))), TRANSFORMER) for look in INSPECTORS.values()]
    cases += [
        (Ctor("C", (("h", look(wrap(FieldAccess(X, "u")))), ("t", _rec()))), MORPHISM)
        for look in INSPECTORS.values()
    ]
    for arm, verdict in cases:
        _assert_verdict(_f(arm), verdict)


@pytest.mark.parametrize("inspector", sorted(INSPECTORS))
def test_inspected_self_call_result(inspector):
    _assert_verdict(_f(_leaf(INSPECTORS[inspector](_rec()))), TRANSFORMER)


def test_constructor_embedding_is_opaque():
    _assert_verdict(_f(_leaf(BinOp("==", _leaf(_rec()), X))), MORPHISM)


def test_self_call_in_a_self_call_argument_is_other():
    _assert_verdict(_f(_rec("t", Call("g", (_rec("u"),)))), OTHER)
    _assert_verdict(_f(Call("f", (FieldAccess(_rec("u"), "t"),))), OTHER)
    # a tainted name holds no self-call
    _assert_verdict(_f(Let("r", L, _rec("u"), _rec("t", Var("r")))), MORPHISM)


def _assert_verdict(fn, verdict):
    new, old = classify_transformer(fn, "L"), oracle.classify_transformer(fn, "L")
    assert new.verdict == verdict
    assert (new.verdict, new.details) == (old.verdict, old.details)


# The one pass scopes a `let`; the earlier walks gave a `let` the taint of
# its value or of its body in the outer scope.  Both kinds of case are
# morphisms now: no self-call result is inspected.
SCOPED_CASES = {
    # the operand reads the inner `r`, which shadows a tainted `r`
    "shadowing": Let(
        "r", L, _rec(), Let("r", L, FieldAccess(X, "u"), _leaf(BinOp("==", Var("r"), X)))
    ),
    # the body of the inspected `let` never reads its tainted name
    "unread": _leaf(BinOp("==", Let("r", L, _rec(), FieldAccess(X, "u")), X)),
}


@pytest.mark.parametrize("case", sorted(SCOPED_CASES))
def test_let_scoped_taint(case):
    fn = _f(SCOPED_CASES[case])
    assert classify_transformer(fn, "L").verdict == MORPHISM
    assert oracle.classify_transformer(fn, "L").verdict == TRANSFORMER


def test_let_scope_ends_with_its_body():
    # the outer `r` is read after the inner `let` that shadows it with a
    # self-call result
    arm = Let(
        "r", L, FieldAccess(X, "u"),
        Ctor("C", (("t", Let("r", L, _rec(), Var("r"))), ("h", BinOp("==", Var("r"), X)))),
    )
    _assert_verdict(_f(arm), MORPHISM)


def test_rebound_parameter_carries_its_taint_to_a_recursive_argument():
    _assert_verdict(_f(Let("x", L, _rec("u"), Ctor("C", (("t", _rec("t")),)))), TRANSFORMER)


# -- value-class blockers ------------------------------------------------------------

LIST_PROGRAM = """
adt S { SN {} SC { int h; S t; } }
adt D { DN {} DC { int h; D t; } }
int g(S s) { return 0; }
int k(D d) { return 0; }
int runS(S s) { switch (s) { case SN: return 0; case SC: return RUN_S; } }
int runD(D d) { switch (d) { case DN: return 0; case DC: return RUN_D; } }
D tr(S s) { switch (s) { case SN: return new DN(); case SC: TR } }
harness void main(S s) { assert(runS(s) == runD(tr(s))); }
"""
BLOCKER_CASES = {
    "none": ({}, None),
    "trans-field": (
        {"TR": "return new DC(h = g(s.t), t = tr(s.t));"},
        "tr: field s.t is read outside a recursive position",
    ),
    "trans-whole": ({"TR": "return new DC(h = g(s), t = tr(s.t));"}, "tr: s is used whole"),
    # the walk that the post-order uses stand for meets the last operand first
    "trans-whole-then-field": (
        {"TR": "return new DC(h = g(s) + g(s.t), t = tr(s.t));"},
        "tr: field s.t is read outside a recursive position",
    ),
    "trans-field-then-whole": (
        {"TR": "return new DC(h = g(s.t) + g(s), t = tr(s.t));"},
        "tr: s is used whole",
    ),
    "trans-rebound": (
        {"TR": "S s = s.t; return new DC(h = 0, t = tr(s.t));"}, "tr: s is rebound",
    ),
    "trans-int-field": ({"TR": "return new DC(h = s.h + 1, t = tr(s.t));"}, None),
    "interp-s-field": (
        {"RUN_S": "s.h + runS(s.t) + g(s.t)"},
        "runS: field s.t is read outside a recursive position",
    ),
    "interp-s-field-then-whole": (
        {"RUN_S": "s.h + runS(s.t) + g(s.t) + g(s)"}, "runS: s is used whole",
    ),
    "interp-d-whole": ({"RUN_D": "d.h + runD(d.t) + k(d)"}, "runD: d is used whole"),
}


@pytest.mark.parametrize("case", sorted(BLOCKER_CASES))
def test_value_class_blocker_case(case):
    parts, blocker = BLOCKER_CASES[case]
    text = LIST_PROGRAM
    defaults = {"RUN_S": "s.h + runS(s.t)", "RUN_D": "d.h + runD(d.t)",
                "TR": "return new DC(h = s.h, t = tr(s.t));"}
    for key, part in {**defaults, **parts}.items():
        text = text.replace(key, part)
    # not expanded: inside an arm `s` has its variant's type, so `g(s)`
    # would not type-check; the analysis is syntactic
    exp = ExpandedProgram(parse_program(text), ())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function("tr"), "S")
    assert report.verdict == MORPHISM
    dec = apply_inductive_decomposition(exp, shape, report)
    assert dec.blocker == blocker
    assert blocker == oracle.value_class_blocker(dec.program, shape, report)
