import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synrec.ast import (
    BIT,
    INT,
    AdtType,
    ArrayType,
    ArrowType,
    FunType,
    RecordType,
    TypeVarRef,
)
from synrec.errors import TypeCheckError, UnifyError
from synrec.parser import parse_program
from synrec.typesys import (
    TypeEnv,
    apply_subst,
    is_concrete,
    type_of,
    typecheck_program,
    unify,
)

SRC = AdtType("srcAST")
DST = AdtType("dstAST")


@pytest.fixture(scope="module")
def lang():
    from conftest import corpus_text

    return parse_program(corpus_text("lang.expected"))


def test_field_access_rule(lang):
    from synrec.ast import FieldAccess, Var

    env = TypeEnv(lang).bind("e", RecordType("NumS", (("v", INT),)))
    assert type_of(env, FieldAccess(Var("e"), "v")) == INT


def test_constructor_rule(lang):
    from synrec.ast import Ctor, IntLit

    env = TypeEnv(lang)
    assert type_of(env, Ctor("NumD", (("v", IntLit(3)),))) == DST


def test_switch_rule_on_solution(lang):
    desugar = lang.function("desugar")
    env = TypeEnv(lang).bind("src", SRC)
    assert type_of(env, desugar.body) == DST


def test_switch_requires_full_coverage(lang):
    text = """
    adt L { N {} C { int h; } }
    int f(L l) { switch (l) { case N: return 0; } }
    """
    p = parse_program(text)
    with pytest.raises(TypeCheckError):
        typecheck_program(p)


def test_interpreters_typecheck(lang):
    typecheck_program(lang)


def test_unify_spec_examples():
    s = unify([(TypeVarRef("T"), DST), (TypeVarRef("Q"), SRC)])
    assert s == {"T": DST, "Q": SRC}
    s = unify([(ArrayType(TypeVarRef("T")), ArrayType(INT))])
    assert s == {"T": INT}
    with pytest.raises(UnifyError):
        unify([(INT, BIT)])


def test_unify_fun_with_arrow_binds_nothing():
    s = unify([(FunType(), ArrowType((SRC,), DST))])
    assert s == {}
    with pytest.raises(UnifyError):
        unify([(FunType(), INT)])


def test_unify_occurs_check():
    with pytest.raises(UnifyError):
        unify([(TypeVarRef("T"), ArrayType(TypeVarRef("T")))])


def test_apply_subst():
    s = {"T": DST, "Q": SRC}
    assert apply_subst(s, ArrowType((TypeVarRef("Q"),), TypeVarRef("T"))) == ArrowType(
        (SRC,), DST
    )
    assert apply_subst({"T": DST}, ArrayType(TypeVarRef("T"))) == ArrayType(DST)
    assert apply_subst({}, SRC) == SRC


def test_is_concrete():
    assert is_concrete(DST)
    assert not is_concrete(ArrayType(TypeVarRef("T")))
    assert is_concrete(RecordType("X", (("l", INT),)))
    assert not is_concrete(FunType())


# -- randomized unifier properties -------------------------------------------

_LEAVES = [INT, BIT, AdtType("A"), AdtType("B")]
_VARS = [TypeVarRef("T"), TypeVarRef("Q"), TypeVarRef("S")]


def _types(depth: int):
    if depth == 0:
        return st.sampled_from(_LEAVES + _VARS)
    sub = _types(depth - 1)
    return st.one_of(
        st.sampled_from(_LEAVES + _VARS),
        sub.map(ArrayType),
        st.tuples(sub, sub).map(lambda ab: ArrowType((ab[0],), ab[1])),
    )


def _ground_terms(depth: int) -> list:
    terms = list(_LEAVES)
    for _ in range(depth):
        terms = terms + [ArrayType(t) for t in terms[:4]]
    return terms


@settings(max_examples=150, deadline=None)
@given(a=_types(2), b=_types(2))
def test_unifier_soundness(a, b):
    try:
        s = unify([(a, b)])
    except UnifyError:
        return
    assert apply_subst(s, a) == apply_subst(s, b)


@settings(max_examples=60, deadline=None)
@given(a=_types(1), b=_types(1))
def test_unifier_generality_vs_bruteforce(a, b):
    """Any unifier found by brute force factors through the returned mgu."""
    try:
        mgu = unify([(a, b)])
    except UnifyError:
        mgu = None
    names = sorted({v.name for v in _VARS})
    ground = _ground_terms(1)
    import itertools

    found = None
    for combo in itertools.product(ground, repeat=len(names)):
        u = dict(zip(names, combo))
        if apply_subst(u, a) == apply_subst(u, b):
            found = u
            break
    if mgu is None:
        assert found is None, f"brute force unified {a} ~ {b} but unify failed"
        return
    if found is not None:
        # U factors through the mgu: U . mgu agrees with U on every variable
        for n in names:
            lhs = apply_subst(found, apply_subst(mgu, TypeVarRef(n)))
            rhs = apply_subst(found, TypeVarRef(n))
            assert lhs == rhs
