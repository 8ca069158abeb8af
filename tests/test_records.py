"""Pins of the record classes' semantics: equality, repr, hashing,
immutability, `replace`, defaults and validation.

Every node, type and declaration of `synrec.ast` and the records of the
other modules are defined by `synrec.ast.record`.  The reprs below were
taken from the `dataclasses` versions of these classes; the front-end and
expansion digests hash the same reprs over whole programs.
"""

import inspect
import math

import pytest

from synrec import ast, cegis, evaluator, expand, indecomp, pipeline
from synrec.ast import (
    INT,
    NO_SPAN,
    UNIT,
    AdtDecl,
    ArrayLit,
    Assert,
    Expr,
    FuncDecl,
    GenLambda,
    IntLit,
    RecordType,
    Span,
    SurfaceProgram,
    UnitLit,
    Var,
    VariantDecl,
    replace,
)
from synrec.cegis import ArmStatus, SynthesisConfig, SynthesisStats, VerifyResult
from synrec.errors import SynrecError
from synrec.evaluator import EvalLimits, Outcome
from synrec.expand import ExpandedProgram, ExpansionContext, _Path
from synrec.indecomp import ClassificationReport, Decomposition, SpecShape, VariantDetail

AT = Span(3, 7)
MODULES = (ast, cegis, evaluator, expand, indecomp, pipeline)
RECORDS = {
    cls
    for mod in MODULES
    for cls in vars(mod).values()
    # a NamedTuple's `_fields` is a tuple
    if isinstance(cls, type) and cls.__module__ == mod.__name__
    and isinstance(vars(cls).get("_fields"), dict)
}


def test_every_record_class_is_found():
    # 37 in `ast` and 16 in the other modules
    assert len(RECORDS) == 53
    assert sum(cls.__module__ == "synrec.ast" for cls in RECORDS) == 37


# (a, b): equal records that differ only in fields that `==` ignores
EQUAL = [
    (Var("x"), Var("x", span=AT)),
    (ArrayLit((), elem_ty=INT, span=AT), ArrayLit(())),
    (Assert(IntLit(1), aid=4), Assert(IntLit(1, span=AT))),
    (GenLambda(Var("x"), span=AT, source="a.synrec"), GenLambda(Var("x"))),
    (AdtDecl("L", (), span=AT, source="a.synrec"), AdtDecl("L", ())),
    (VariantDecl("N", (), span=AT), VariantDecl("N", ())),
    (
        FuncDecl("standard", "f", (), (), INT, IntLit(0), span=AT, source="a.synrec"),
        FuncDecl("standard", "f", (), (), INT, IntLit(0)),
    ),
    (UnitLit(span=AT), UnitLit()),
    (ArmStatus("N", binder=object()), ArmStatus("N")),
    (SynthesisStats(run=(1, 2)), SynthesisStats()),
    (ClassificationReport("Other", facts=object()), ClassificationReport("Other")),
]


@pytest.mark.parametrize("a,b", EQUAL, ids=lambda x: type(x).__name__)
def test_equality_ignores_the_fields_it_does_not_compare(a, b):
    assert a == b and not a != b


def test_equality_reads_every_other_field_and_the_exact_class():
    assert Var("x") != Var("y")
    assert Assert(IntLit(1)) != Assert(IntLit(2))
    assert ArmStatus("N") != ArmStatus("N", solved=True)
    assert RecordType("N", (("t", INT),)) != RecordType("M", (("t", INT),))
    assert UNIT == ast.UnitType() and UnitLit() != UNIT
    assert Var("x") != ast.FuncRef("x")
    base = ExpandedProgram(SurfaceProgram((), ()), ())
    assert Decomposition(base.program, (), False, None) != base


REPRS = [
    (Var("x", span=AT), "Var(name='x')"),
    (UnitLit(span=AT), "UnitLit()"),
    (ArrayLit((), elem_ty=INT, span=AT), "ArrayLit(items=(), elem_ty=PrimType(name='int'))"),
    (Assert(IntLit(1), aid=4), "Assert(cond=IntLit(value=1), aid=4)"),
    (GenLambda(Var("x"), span=AT, source="a.synrec"), "GenLambda(body=Var(name='x'))"),
    (
        FuncDecl("standard", "f", (), (("x", INT),), UNIT, UnitLit(), span=AT, source="a"),
        "FuncDecl(kind='standard', name='f', type_params=(), params=(('x', PrimType(name='int')),),"
        " ret=UnitType(), body=UnitLit(), is_harness=False, annotations=())",
    ),
    (
        RecordType("N", (("t", INT),)),
        "RecordType(variant='N', fields=(('t', PrimType(name='int')),))",
    ),
    (ArmStatus("N", binder=object()), "ArmStatus(variant='N', solved=False, ms=0.0, passed=0)"),
    (VerifyResult(True), (
        "VerifyResult(passed=True, counterexample=None, failure=None, evaluations=0,"
        " strategy='exhaustive', args=None)"
    )),
    (Outcome("pass"), "Outcome(kind='pass', assert_id=-1, detail='')"),
    (
        ClassificationReport("Other", (VariantDetail("N", ("t",)),), facts=object()),
        "ClassificationReport(verdict='Other', details=(VariantDetail(variant='N',"
        " recursed_fields=('t',)),))",
    ),
    (EvalLimits(), "EvalLimits(max_depth=5)"),
    (_Path(), "_Path(counters=(), trail=())"),
    (
        SynthesisConfig(),
        "SynthesisConfig(input_depth=3, int_domain=(0, 1, 2), hole_lo=0, hole_hi=3,"
        " inline_bound=3, unroll_depth=None, timeout_secs=300.0, indecomp=True)",
    ),
    (
        SynthesisStats(run=(1, 2)),
        "SynthesisStats(iterations=0, search_evaluations=0, verify_evaluations=0,"
        " skipped_candidates=0, counterexamples=[], wall_ms=0, per_arm=[],"
        " phases={'parse': 0.0, 'expand': 0.0, 'decompose': 0.0, 'compile': 0.0,"
        " 'search': 0.0, 'verify': 0.0, 'concretize': 0.0}, verify_strategy='exhaustive',"
        " verify_reason=None)",
    ),
    (
        Decomposition(SurfaceProgram((), ()), (), True, None),
        "Decomposition(program=SurfaceProgram(adts=(), functions=()), control_space=(),"
        " decomposed=True, blocker=None)",
    ),
]


@pytest.mark.parametrize("value,text", REPRS, ids=lambda x: type(x).__name__)
def test_repr_shows_the_fields_it_does_not_hide(value, text):
    assert repr(value) == text


FROZEN = [
    INT,
    RecordType("N", (("t", INT),)),
    ast.ArrowType((INT,), UNIT),
    SynthesisConfig(),
    EvalLimits(),
    Outcome("pass"),
    ExpansionContext(3, 0, 3),
    _Path((("f", 1),), ("f",)),
    SpecShape("t", "s", "d", "S", "D", "x"),
    VariantDetail("N", ("t",)),
    ClassificationReport("Other"),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda x: type(x).__name__)
def test_frozen_records_hash_by_their_compared_fields_and_refuse_assignment(value):
    compared = tuple(getattr(value, n) for n, f in value._fields.items() if f.compare)
    assert hash(value) == hash(compared)
    assert {value: 1}[replace(value)] == 1
    name = next(iter(value._fields))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)


def test_nodes_and_mutable_records_are_unhashable():
    for cls in RECORDS:
        frozen = cls.__setattr__ is not object.__setattr__
        assert (cls.__hash__ is None) != frozen, cls
    ast_frozen = {c for c in RECORDS if c.__module__ == "synrec.ast" and c.__hash__ is not None}
    assert ast_frozen == {c for c in RECORDS if issubclass(c, ast.TypeExpr)}
    with pytest.raises(TypeError, match="unhashable type: 'Var'"):
        hash(Var("x"))


def test_mutable_records_take_assignment():
    stats = SynthesisStats()
    stats.iterations += 2
    assert stats.iterations == 2
    node = Var("x")
    with pytest.raises(AttributeError):
        node.other = 1  # slots: no other attributes


def test_replace_keeps_span_and_source_and_checks_fields():
    g = replace(GenLambda(Var("x"), span=AT, source="a.synrec"), body=Var("y"))
    assert (g.body, g.span, g.source) == (Var("y"), AT, "a.synrec")
    f = FuncDecl("standard", "f", (), (), INT, IntLit(0), span=AT, source="a.synrec")
    g = replace(f, body=IntLit(1))
    assert (g.body, g.span, g.source, g.kind) == (IntLit(1), AT, "a.synrec", "standard")
    assert f.body == IntLit(0)
    assert replace(SynthesisConfig(), indecomp=False) == SynthesisConfig(indecomp=False)
    with pytest.raises(TypeError):
        replace(Var("x"), nme="y")
    with pytest.raises(SynrecError, match="input depth must be positive, got 0"):
        replace(SynthesisConfig(), input_depth=0)


def test_default_factories_give_each_record_its_own_value():
    a, b = SynthesisStats(), SynthesisStats()
    a.counterexamples.append("x")
    a.phases["parse"] += 1.0
    assert b.counterexamples == [] and b.phases == dict.fromkeys(cegis.PHASES, 0.0)
    assert SynthesisStats(per_arm=[ArmStatus("N")]).per_arm == [ArmStatus("N")]


def test_expanded_program_keeps_a_dict_for_its_cached_defaults():
    point = expand.ControlPoint(0, "hole", 1, 3)
    for prog in (
        ExpandedProgram(SurfaceProgram((), ()), (point,)),
        Decomposition(SurfaceProgram((), ()), (point,), True, "why"),
    ):
        assert prog.defaults == {0: 1} and prog.defaults is prog.defaults
        assert "defaults" in vars(prog)
    assert list(Decomposition._fields) == ["program", "control_space", "decomposed", "blocker"]


def test_init_signatures_are_those_of_the_fields():
    def shape(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert shape(FuncDecl) == [
        ("kind", empty), ("name", empty), ("type_params", empty), ("params", empty),
        ("ret", empty), ("body", empty), ("is_harness", False), ("annotations", ()),
        ("span", NO_SPAN), ("source", None),
    ]
    assert shape(ArrayLit) == [("items", empty), ("elem_ty", None), ("span", NO_SPAN)]
    assert shape(UnitLit) == [("span", NO_SPAN)]
    assert shape(ast.UnitType) == []
    assert Var("x", AT).span == AT  # span stays positional
    for cls in RECORDS:
        assert [p for p in inspect.signature(cls).parameters] == list(cls._fields), cls


SETTINGS = [
    ({"input_depth": 0}, "input depth must be positive, got 0"),
    ({"inline_bound": -1}, "inline bound must be positive, got -1"),
    ({"unroll_depth": 0}, "unroll depth must be positive, got 0"),
    ({"timeout_secs": 0.0}, "timeout secs must be positive, got 0.0"),
    ({"timeout_secs": -5.0}, "timeout secs must be positive, got -5.0"),
    ({"timeout_secs": math.nan}, "timeout secs must be positive, got nan"),
    ({"int_domain": ()}, "int domain is empty"),
    ({"hole_lo": 3, "hole_hi": 1}, "hole domain 3..1 is empty"),
]


@pytest.mark.parametrize("fields,message", SETTINGS)
def test_config_validation_runs_at_construction(fields, message):
    with pytest.raises(SynrecError) as err:
        SynthesisConfig(**fields)
    assert str(err.value) == message


def test_eval_limits_validation_runs_at_construction():
    with pytest.raises(ValueError, match="evaluation limits must be positive"):
        EvalLimits(0)
    assert SynthesisConfig(input_depth=4).eval_limits() == EvalLimits(6)
