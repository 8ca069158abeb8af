import pytest

from synrec.ast import (
    BIT,
    INT,
    AdtType,
    AlwaysFail,
    ArrayLit,
    ArrayType,
    Call,
    Choice,
    Ctor,
    FieldAccess,
    FieldsOf,
    FlexSwitch,
    Hole,
    IntLit,
    RecordType,
    Switch,
    UnknownCtor,
    Var,
    contains_psc,
    walk,
)
from synrec.errors import ExpandError
from synrec.expand import ExpansionContext, Expander, _Path, expand_program
from synrec.parser import parse_program
from synrec.pipeline import load_with_library
from synrec.prelude import prelude_text
from synrec.typesys import TypeEnv, check_type

from conftest import corpus_text

SRC = AdtType("srcAST")
DST = AdtType("dstAST")
OPC = AdtType("opcode")


@pytest.fixture(scope="module")
def lang():
    return load_with_library(corpus_text("lang"))


def make_expander(program, **kw):
    return Expander(program, ExpansionContext(**kw))


def fresh_path():
    return _Path()


def field_access(base, label):
    return FieldAccess(Var(base), label)


# -- FL ------------------------------------------------------------------------


def test_fl_nums_empty_array(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("src", RecordType("NumS", (("v", INT),)))
    out = ex.expand_field_list(env, FieldsOf(Var("src")), ArrayType(SRC))
    assert out == ArrayLit(())


def test_fl_betweens_three_fields(lang):
    ex = make_expander(lang)
    between = lang.adt("srcAST").variant("BetweenS").record_type()
    env = TypeEnv(lang).bind("src", between)
    out = ex.expand_field_list(env, FieldsOf(Var("src")), ArrayType(SRC))
    assert out == ArrayLit(
        (field_access("src", "a"), field_access("src", "b"), field_access("src", "c"))
    )


def test_fl_binarys_opcode_field(lang):
    ex = make_expander(lang)
    binary = lang.adt("srcAST").variant("BinaryS").record_type()
    env = TypeEnv(lang).bind("src", binary)
    out = ex.expand_field_list(env, FieldsOf(Var("src")), ArrayType(OPC))
    assert out == ArrayLit((field_access("src", "op"),))


def test_fl_requires_array_context(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("src", RecordType("NumS", (("v", INT),)))
    with pytest.raises(ExpandError):
        ex.expand_field_list(env, FieldsOf(Var("src")), SRC)


# -- FPM -----------------------------------------------------------------------


def test_fpm_five_arms(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("src", SRC)
    out = ex.expand_flex_match(
        env, FlexSwitch("src", IntLit(1)), INT, fresh_path()
    )
    assert isinstance(out, Switch)
    assert [a.variant for a in out.arms] == [
        "NumS",
        "TrueS",
        "FalseS",
        "BinaryS",
        "BetweenS",
    ]


def test_fpm_one_variant_adt():
    p = parse_program("adt One { Only { int v; } } int f(One x) { return 0; }")
    ex = make_expander(p)
    env = TypeEnv(p).bind("x", AdtType("One"))
    out = ex.expand_flex_match(env, FlexSwitch("x", IntLit(3)), INT, fresh_path())
    assert len(out.arms) == 1 and out.arms[0].variant == "Only"


def test_fpm_arms_get_fresh_control_points():
    p = parse_program("adt Two { A {} B {} } int f(Two x) { return 0; }")
    ex = make_expander(p)
    env = TypeEnv(p).bind("x", AdtType("Two"))
    out = ex.expand_flex_match(env, FlexSwitch("x", Hole()), INT, fresh_path())
    holes = [n.cp for arm in out.arms for n in walk(arm.body) if isinstance(n, Hole)]
    assert len(holes) == 2 and holes[0] != holes[1]


# -- UC1 / UC2 -------------------------------------------------------------------


def test_uc1_opcode_three_constructors(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("e", SRC)
    out = ex.expand(env, UnknownCtor((Call("rcons", (Var("e"),)),)), OPC, fresh_path())
    assert isinstance(out, Choice)
    assert out.arms == (Ctor("AndOp", ()), Ctor("OrOp", ()), Ctor("LtOp", ()))


def test_uc2_int_hole(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang)
    out = ex.expand(env, UnknownCtor(()), INT, fresh_path())
    assert isinstance(out, Hole)
    assert out.ty == INT
    cp = ex.points[out.cp]
    assert (cp.lo, cp.hi) == (0, 3)


def test_hole_bit_domain(lang):
    ex = make_expander(lang)
    out = ex.expand(TypeEnv(lang), Hole(), BIT, fresh_path())
    cp = ex.points[out.cp]
    assert (cp.lo, cp.hi) == (0, 1)


def test_uc1_dst_skeleton_one_level(lang):
    """cons? at dstAST: one constructor arm per variant, recursive argument
    expansions in the fields (one rcons level against the example types)."""
    ex = make_expander(lang)
    between = lang.adt("srcAST").variant("BetweenS").record_type()
    env = TypeEnv(lang).bind("src", between)
    arg = Call("rcons", (Var("src"),))
    out = ex.expand(env, UnknownCtor((arg,)), DST, fresh_path())
    assert isinstance(out, Choice)
    variants = [a.variant for a in out.arms]
    assert variants == ["NumD", "BoolD", "BinaryD"]
    # each NumD/BoolD field bottoms out in a hole through the inlined rcons
    numd = out.arms[0]
    assert any(isinstance(n, Hole) for n in walk(numd))


def test_integer_literal_identity(lang):
    ex = make_expander(lang)
    out = ex.expand(TypeEnv(lang), IntLit(5), INT, fresh_path())
    assert out == IntLit(5)


def test_choice_filters_ill_typed_arms(lang):
    """choose(a, b, src.op) at dstAST keeps only the dstAST-typed arms."""
    ex = make_expander(lang)
    binary = lang.adt("srcAST").variant("BinaryS").record_type()
    env = (
        TypeEnv(lang)
        .bind("src", binary)
        .bind("a", DST)
        .bind("b", DST)
    )
    out = ex.expand(
        env,
        Choice((Var("a"), Var("b"), field_access("src", "op"))),
        DST,
        fresh_path(),
    )
    assert isinstance(out, Choice)
    assert out.arms == (Var("a"), Var("b"))


def test_choice_with_no_survivors_fails(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("a", DST)
    with pytest.raises(ExpandError):
        ex.expand(env, Choice((Var("a"),)), INT, fresh_path())


def test_single_survivor_collapses(lang):
    ex = make_expander(lang)
    env = TypeEnv(lang).bind("a", DST)
    out = ex.expand(env, Choice((Var("a"), IntLit(1))), DST, fresh_path())
    assert out == Var("a")


# -- whole-program expansion ------------------------------------------------------


def test_expand_running_example(lang):
    exp = expand_program(lang, ExpansionContext())
    desugar = exp.program.function("desugar")
    assert isinstance(desugar.body, Switch)
    assert [a.variant for a in desugar.body.arms] == [
        "NumS",
        "TrueS",
        "FalseS",
        "BinaryS",
        "BetweenS",
    ]
    # generators are consumed
    assert exp.program.function("recursiveReplacer") is None
    assert exp.program.function("rcons") is None


def test_expansion_well_typed(lang):
    exp = expand_program(lang, ExpansionContext())
    for f in exp.program.functions:
        env = TypeEnv(exp.program)
        for n, t in f.params:
            env = env.bind(n, t)
        check_type(env, f.body, f.ret)  # raises on failure


def test_expansion_psc_free_and_fresh_ids(lang):
    exp = expand_program(lang, ExpansionContext())
    seen = set()
    for f in exp.program.functions:
        for node in walk(f.body):
            assert not contains_psc(node) or not isinstance(
                node, (FieldsOf, FlexSwitch, UnknownCtor)
            )
            if isinstance(node, (Hole, Choice)):
                assert node.cp not in seen
                seen.add(node.cp)
    assert seen == set(range(len(exp.control_space)))


def test_expansion_deterministic(lang):
    a = expand_program(lang, ExpansionContext())
    b = expand_program(lang, ExpansionContext())
    assert a.program == b.program
    assert a.control_space == b.control_space


def test_identity_on_concrete_program(lang_expected_text):
    p = parse_program(lang_expected_text)
    exp = expand_program(p, ExpansionContext())
    assert exp.control_space == ()
    assert exp.program == p


def test_prelude_only_expansion_is_vacuous():
    p = parse_program(prelude_text())
    exp = expand_program(p, ExpansionContext())
    assert exp.program.functions == ()
    assert exp.control_space == ()


def test_inline_bound_produces_always_fail(lang):
    exp = expand_program(lang, ExpansionContext(inline_bound=1))
    fails = [
        n
        for f in exp.program.functions
        for n in walk(f.body)
        if isinstance(n, AlwaysFail)
    ]
    assert fails


def test_sibling_calls_have_independent_budgets():
    """Two sibling rcons-like calls must not consume each other's budget."""
    p = parse_program(
        """
        adt P { MkP { int a; int b; } }
        generator int g() { return ??; }
        int f(P x) { return g() + g(); }
        """
    )
    exp = expand_program(p, ExpansionContext(inline_bound=1))
    body = exp.program.function("f").body
    assert not any(isinstance(n, AlwaysFail) for n in walk(body))
    holes = [n for n in walk(body) if isinstance(n, Hole)]
    assert len(holes) == 2


def test_field_of_field_errors(lang):
    text = """
    adt A { MkA { int v; } }
    int f(A x) { return field(field(x)); }
    """
    p = load_with_library(text)
    with pytest.raises(ExpandError):
        expand_program(p, ExpansionContext())


def test_arm_order_follows_declarations(lang):
    exp = expand_program(lang, ExpansionContext())
    desugar = exp.program.function("desugar")
    for arm in desugar.body.arms:
        chooses = [n for n in walk(arm.body) if isinstance(n, Choice)]
        ctor_chooses = [
            c for c in chooses if all(isinstance(a, Ctor) for a in c.arms) and len(c.arms) == 3
        ]
        for c in ctor_chooses:
            names = [a.variant for a in c.arms]
            assert names in (["NumD", "BoolD", "BinaryD"], ["AndOp", "OrOp", "LtOp"])
