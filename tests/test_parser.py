import logging

import pytest

from synrec import parser, pipeline
from synrec.ast import (
    INT,
    POLYGEN,
    AdtType,
    Call,
    FlexSwitch,
    FuncRef,
    Hole,
    Let,
    Var,
    children,
    walk,
)
from synrec.cegis import SOLVED, SynthesisConfig
from synrec.errors import ParseError, PrintError, ResolveError
from synrec.parser import parse_program
from synrec.pipeline import check_concrete, load_with_library, synthesize
from synrec.prelude import prelude_text
from synrec.printer import pretty_print_program

from conftest import corpus_text


def test_opcode_adt():
    p = parse_program("adt opcode{ AndOp{} OrOp{} LtOp{}}")
    (adt,) = p.adts
    assert adt.name == "opcode"
    assert [v.name for v in adt.variants] == ["AndOp", "OrOp", "LtOp"]
    assert all(v.fields == () for v in adt.variants)


def test_empty_adt_rejected():
    with pytest.raises(ParseError):
        parse_program("adt A{}")


def test_prelude_parses_to_three_polygens():
    p = parse_program(prelude_text())
    assert [f.name for f in p.functions] == ["recursiveReplacer", "rcons", "field"]
    assert all(f.kind == POLYGEN for f in p.functions)
    assert p.function("recursiveReplacer").type_params == ("T", "Q")
    assert p.function("rcons").type_params == ("T",)
    assert p.function("field").type_params == ("T", "S")


def test_prelude_shapes():
    p = parse_program(prelude_text())
    rr = p.function("recursiveReplacer")
    assert isinstance(rr.body, FlexSwitch)
    assert rr.body.scrutinee == "src"


def test_variant_field_types():
    p = parse_program("adt L { N {} C { int h; L t; } } int f(L l) { return 0; }")
    c = p.adts[0].variant("C")
    assert c.fields == (("h", INT), ("t", AdtType("L")))


def test_duplicate_function_rejected():
    with pytest.raises(ResolveError):
        parse_program("int f(int x) { return x; } int f(int y) { return y; }")


def test_duplicate_variant_rejected():
    with pytest.raises(ResolveError):
        parse_program("adt A { X {} } adt B { X {} }")


def test_unbound_identifier_rejected():
    with pytest.raises(ResolveError):
        parse_program("int f(int x) { return y; }")


def test_switch_scrutinee_must_be_variable():
    with pytest.raises((ParseError, ResolveError)):
        parse_program(
            "adt L { N {} } int f(L l) { switch (g(l)) { case N: return 0; } }"
        )


def test_function_passed_as_argument_resolves():
    p = parse_program(
        """
        adt L { N {} }
        int g(L x) { return 0; }
        int f(L l) { return h(l, g); }
        int h(L l, fun r) { return 1; }
        """
    )
    call = p.function("f").body
    assert isinstance(call.args[1], FuncRef)


def test_harness_flag_and_params():
    p = parse_program("adt L { N {} } harness void m(L l) { assert(1); }")
    (h,) = p.harnesses
    assert h.name == "m" and h.is_harness


def test_round_trip_simple():
    src = "int f(int x) { return x; }"
    p = parse_program(src)
    assert parse_program(pretty_print_program(p)) == p


def test_round_trip_corpus(lang_expected_text):
    p = parse_program(lang_expected_text)
    printed = pretty_print_program(p)
    assert parse_program(printed) == p
    # fixpoint: printing again is stable
    assert pretty_print_program(parse_program(printed)) == printed


def test_resolution_totality(lang_program):
    """Every identifier of the loaded program is bound: a variable in
    scope, a function reference to a defined function, or a call of a
    function, a `fun` in scope or a built-in."""

    def check(e, scope, fname):
        if isinstance(e, Var):
            assert e.name in scope, (fname, e.name)
        if isinstance(e, FuncRef):
            assert lang_program.function(e.name) is not None, (fname, e.name)
        if isinstance(e, Call) and e.callee not in scope and e.callee != "map":
            assert lang_program.function(e.callee) is not None, (fname, e.callee)
        if isinstance(e, Let):
            check(e.value, scope, fname)
            check(e.body, scope | {e.name}, fname)
            return
        for c in children(e):
            check(c, scope, fname)

    for f in lang_program.functions:
        check(f.body, {n for n, _ in f.params}, f.name)


def test_call_to_unknown_function_rejected_at_load():
    with pytest.raises(ResolveError, match="call to unknown function 'nope'"):
        load_with_library(
            "adt L { N {} } int f(L x) { return nope(x); } harness void m(L l) { assert(1); }"
        )


def test_library_template_passed_by_name():
    # `field` is a library generator: the user file names it before the
    # library is merged, so only a resolution after the merge binds it.
    text = """
    adt Pair { P { int a; int b; } Q { int c; } }
    generator T app<T, S>(fun g, S x) { return g(x); }
    int second(Pair x) {
      switch (x) {
        case P: return app(field, x);
        case Q: return app(field, x);
      }
    }
    int spec(Pair x) { switch (x) { case P: return x.b; case Q: return x.c; } }
    harness void main(Pair x) { assert(second(x) == spec(x)); }
    """
    program = load_with_library(text)
    assert isinstance(program.function("second").body.arms[0].body.args[0], FuncRef)
    cfg = SynthesisConfig(input_depth=1)
    res = synthesize(text, cfg)
    assert res.status == SOLVED
    solution = pretty_print_program(res.solution)
    assert "x.b" in solution and "x.c" in solution
    assert check_concrete(text, cfg, solution_text=solution).passed


@pytest.mark.parametrize("solution", [None, "int f(int x) { return x; }"])
def test_load_resolves_once(monkeypatch, lang_text, solution):
    calls = []
    resolve = parser.resolve

    def counting(program):
        calls.append(program)
        return resolve(program)

    # wrap the name where the parser calls it and where the loader does
    monkeypatch.setattr(parser, "resolve", counting)
    monkeypatch.setattr(pipeline, "resolve", counting, raising=False)
    load_with_library(lang_text, solution_text=solution)
    assert len(calls) == 1


def test_load_library_merges_prelude(lang_text):
    merged = load_with_library(lang_text)
    assert merged.function("recursiveReplacer") is not None
    assert merged == load_with_library(lang_text, prelude_text())


def test_load_library_empty_is_identity(lang_expected_text):
    assert load_with_library(lang_expected_text, "") == parse_program(lang_expected_text)


def test_user_shadows_library_with_warning(caplog):
    user = """
        adt L { N {} }
        generator T field<T, S>(S e) { return (e.fields?)[0]; }
        harness void m(L l) { assert(1); }
        """
    with caplog.at_level(logging.WARNING, logger="synrec"):
        merged = load_with_library(user, prelude_text())
    assert "shadows" in caplog.text
    body = merged.function("field").body
    # the user version indexes with 0, the library version with ??
    assert not any(isinstance(n, Hole) for n in walk(body))


def test_solution_replaces_program_functions_without_warning(caplog):
    """A solution file replaces the program's functions by design: checking
    `lang.expected` against `lang` logs no shadowing."""
    with caplog.at_level(logging.WARNING, logger="synrec"):
        vr = check_concrete(
            corpus_text("lang"),
            SynthesisConfig(input_depth=1),
            solution_text=corpus_text("lang.expected"),
        )
    assert vr.passed
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


PAIR = "adt Pair { MkPair { int a; } } harness void m() { assert(1); }"
OTHER_PAIR = "adt Pair { MkPair { int a; int b; } }"


def test_conflicting_adt_is_hard_error():
    with pytest.raises(ResolveError) as err:
        load_with_library(PAIR, OTHER_PAIR)
    assert err.value.message == "ADT 'Pair' conflicts with its declaration in the library"


# a solution's conflict: the sources loaded (program, library, solution),
# and the source the error names
SOLUTION_CONFLICTS = {
    "program": (PAIR, "", OTHER_PAIR),
    "library": (PAIR.replace("Pair", "Q"), PAIR, OTHER_PAIR),
}


@pytest.mark.parametrize("blamed", sorted(SOLUTION_CONFLICTS))
def test_conflicting_adt_in_a_solution_names_its_source(blamed):
    with pytest.raises(ResolveError) as err:
        load_with_library(*SOLUTION_CONFLICTS[blamed])
    assert err.value.message == f"ADT 'Pair' conflicts with its declaration in the {blamed}"


def test_identical_adt_merges():
    user = "adt Pair { MkPair { int a; } } harness void m() { assert(1); }"
    merged = load_with_library(user, "adt Pair { MkPair { int a; } }")
    assert len([a for a in merged.adts if a.name == "Pair"]) == 1


def test_pscs_parse():
    p = parse_program(
        """
        adt L { N {} }
        generator T g<T>(L src) {
          switch (src) {
            case?: return new cons?(src.fields?, ??, choose(1, 2));
          }
        }
        """
    )
    body = p.function("g").body
    kinds = {type(n).__name__ for n in walk(body)}
    assert {"FlexSwitch", "UnknownCtor", "FieldsOf", "Hole", "Choice"} <= kinds


def test_printing_a_template_raises_print_error():
    """A strict print takes concrete programs only, and a debug print
    renders the holes and choices of an expansion but no construct that
    expansion removes."""
    with pytest.raises(PrintError, match="hole"):
        pretty_print_program(parse_program("int f(int x) { return x + ??; }"))
    template = parse_program(
        """
        adt L { N {} }
        generator T g<T>(L src) {
          switch (src) {
            case?: return new cons?(src.fields?);
          }
        }
        """
    )
    for debug in (False, True):
        with pytest.raises(PrintError, match="UnknownCtor"):
            pretty_print_program(template, debug=debug)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("adt A { X {} }\nint f( { return 1; }")
    assert exc.value.span.line == 2


def test_unreachable_round_trips():
    src = "adt L { N {} } L f(L l) { return unreachable<L>; }"
    p = parse_program(src)
    assert parse_program(pretty_print_program(p)) == p


def test_not_round_trips():
    """`!` as a value, on a call, on a parenthesized comparison, and twice."""
    src = """
adt nat { Z {} S1 { nat p; } }

bit even(nat x) {
  switch (x) {
    case Z: return 1;
    case S1: return !even(x.p);
  }
}

harness void main(nat x, bit b) {
  assert(!(even(x) == b) || !!b == b);
}
"""
    p = parse_program(src)
    printed = pretty_print_program(p)
    assert printed.count("!") == 4
    assert parse_program(printed) == p
    assert pretty_print_program(parse_program(printed)) == printed
