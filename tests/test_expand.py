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
from synrec.cegis import SynthesisConfig
from synrec.errors import ExpandError
from synrec.expand import Expander, _Path, expand_program
from synrec.instances import force_expansion
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
    return Expander(program, SynthesisConfig(**kw).expansion_context())


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
    exp = expand_program(lang, SynthesisConfig().expansion_context())
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
    exp = expand_program(lang, SynthesisConfig().expansion_context())
    for f in exp.program.functions:
        env = TypeEnv(exp.program)
        for n, t in f.params:
            env = env.bind(n, t)
        check_type(env, f.body, f.ret)  # raises on failure


def test_expansion_psc_free_and_fresh_ids(lang):
    exp = force_expansion(expand_program(lang, SynthesisConfig().expansion_context()))
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
    a = expand_program(lang, SynthesisConfig().expansion_context())
    b = expand_program(lang, SynthesisConfig().expansion_context())
    assert a.program == b.program
    assert a.control_space == b.control_space


def test_identity_on_concrete_program(lang_expected_text):
    p = parse_program(lang_expected_text)
    exp = expand_program(p, SynthesisConfig().expansion_context())
    assert exp.control_space == ()
    assert exp.program == p


def test_prelude_only_expansion_is_vacuous():
    p = parse_program(prelude_text())
    exp = expand_program(p, SynthesisConfig().expansion_context())
    assert exp.program.functions == ()
    assert exp.control_space == ()


def test_inline_bound_produces_always_fail(lang):
    exp = expand_program(lang, SynthesisConfig(inline_bound=1).expansion_context())
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
    exp = expand_program(p, SynthesisConfig(inline_bound=1).expansion_context())
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
        expand_program(p, SynthesisConfig().expansion_context())


def test_arm_order_follows_declarations(lang):
    exp = expand_program(lang, SynthesisConfig().expansion_context())
    desugar = exp.program.function("desugar")
    for arm in desugar.body.arms:
        chooses = [n for n in walk(arm.body) if isinstance(n, Choice)]
        ctor_chooses = [
            c for c in chooses if all(isinstance(a, Ctor) for a in c.arms) and len(c.arms) == 3
        ]
        for c in ctor_chooses:
            names = [a.variant for a in c.arms]
            assert names in (["NumD", "BoolD", "BinaryD"], ["AndOp", "OrOp", "LtOp"])


def test_validation_retypes_an_equality_operand_without_false_duplicates():
    """`choose(1, ??)` at `bit` has no bottom-up type (its first arm is an
    int literal), so the equality types it again top down; its control
    points are still each met once."""
    src = """
    adt N { Z {} }
    harness void main(N n) { bit b = 1; assert(b == choose(1, ??)); }
    """
    out = expand_program(parse_program(src), SynthesisConfig().expansion_context())
    assert [p.kind for p in out.control_space] == ["hole", "choice"]


# Templates whose keys hold record types with equal field lists.  Each toy
# is pinned by the digest its expansion had when every template was keyed
# by the exact types of its names.  `keep` lets a name of type `S` (a
# record), so its tree renders the variant, and `wrap` only calls `keep`;
# in `two`, `choose(x, y)` keeps both arms when `x` and `y` are records of
# one variant and drops `y` otherwise; `probe` compares its record
# parameter with a record that its own `case?` binds.
RECORD_KEYS = {
    "keep": (
        """
adt src { A { int v; } B { int v; } }
adt dst { D { int w; } }

generator T keep<T, S>(S e) {
  S y = e;
  return new cons?((y.fields?)[??], ??);
}

dst f(src e) {
  switch (e) {
    case?: return keep(e);
  }
}
""",
        "aa2b7e579ce10abd",
    ),
    "wrap": (
        """
adt src { A { int v; } B { int v; } }
adt dst { D { int w; } }

generator T keep<T, S>(S e) {
  S y = e;
  return new cons?((y.fields?)[??], ??);
}

generator T wrap<T, S>(S e) {
  return keep(e);
}

dst f(src e) {
  switch (e) {
    case?: return wrap(e);
  }
}
""",
        "74fff56e774ea33e",
    ),
    "two": (
        """
adt src { P { int v; } Q { int v; } }

generator int two<S>(S a, S b) {
  return a.v + b.v;
}

int f(src x, src y) {
  switch (x) {
    case P: return 0;
    case Q:
      switch (y) {
        case?: return two(x, choose(x, y));
      }
  }
}
""",
        "910c9bfdc477fc0d",
    ),
    "probe": (
        """
adt src { P { int v; } Q { int v; } }

generator int probe<S>(S a, src z) {
  switch (z) {
    case?: if (choose(a == z, 1)) { return 1; } else { return 0; }
  }
}

int f(src x, src y) {
  switch (x) {
    case?: return probe(x, y);
  }
}
""",
        "888151505a25a9c2",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORD_KEYS))
def test_templates_over_records_of_equal_fields_keep_their_expansion(name):
    from test_expansion_pin import _fingerprint

    text, digest = RECORD_KEYS[name]
    expanded = expand_program(parse_program(text), SynthesisConfig().expansion_context())
    assert _fingerprint(force_expansion(expanded)) == digest


def test_failed_template_names_the_record_of_its_call():
    """`bad(x)` fails with a message that names `x`'s record type.  In
    `split`'s arm `A` a choice drops it; in arm `B` its error escapes, and
    must name `B`, not the `A` of the first failure."""
    text = """
adt src { A { int v; } B { int v; } }

generator int bad<S>(S e) {
  return e;
}

generator int split(src e, fun f) {
  switch (e) {
    case A: return choose(f(), e.v);
    case B: return f();
  }
}

int f(src x) {
  return split(x, bad(x));
}
"""
    with pytest.raises(ExpandError) as exc:
        expand_program(parse_program(text), SynthesisConfig().expansion_context())
    assert str(exc.value) == "16:23: 'x' has type B{v: int}, required int"


@pytest.mark.parametrize(
    "source,builds,instances",
    [("scaling8", 21, 39), ("elimBool", 31, 45), ("lang", 73, 82)],
)
def test_templates_are_built_once_per_record_shape(monkeypatch, source, builds, instances):
    """The unary variants of the scaling family, and the variants of
    `elimBool` and `lang` with equal field lists, share their templates."""
    from synrec.scaling import scaling_benchmark

    counts = {"build": 0, "instantiate": 0}
    for method in counts:
        wrapped = getattr(Expander, "_" + method)

        def counting(self, *args, _method=method, _wrapped=wrapped):
            counts[_method] += 1
            return _wrapped(self, *args)

        monkeypatch.setattr(Expander, "_" + method, counting)
    if source.startswith("scaling"):
        program = load_with_library(scaling_benchmark(int(source.removeprefix("scaling"))))
    else:
        program = load_with_library(corpus_text(source))
    expand_program(program, SynthesisConfig().expansion_context())
    assert (counts["build"], counts["instantiate"]) == (builds, instances)
