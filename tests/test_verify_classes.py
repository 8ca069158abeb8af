"""Value-class verification against the exhaustive bounded check.

The value-class strategy must give the exhaustive check's verdict and
first counterexample on every candidate it accepts, including at the
recursion-depth limit, and it must stay out of the way wherever its
applicability conditions do not hold.
"""

import dataclasses
import functools

import pytest

from synrec import cegis, pipeline
from synrec.cegis import EXHAUSTIVE, VALUE_CLASS, SynthesisConfig, run_cegis
from synrec.evaluator import format_value
from synrec.expand import expand_program
from synrec.indecomp import (
    apply_inductive_decomposition,
    classify_transformer,
    detect_spec_shape,
    value_class_blocker,
)
from synrec.parser import parse_program
from synrec.pipeline import check_concrete, load_with_library, prepare, synthesize
from synrec.printer import pretty_print_program
from synrec.scaling import scaling_benchmark

import toys
from conftest import corpus_text, reference_verify


def _key(vr):
    """Verdict, counterexample and failure kind (the compiled and reference
    executors word resource failures differently)."""
    if vr.passed:
        return True, None, None
    cex = {k: format_value(v) for k, v in vr.counterexample.items()}
    return False, cex, (vr.failure.kind, vr.failure.assert_id)


def _recorded_run(monkeypatch, text, cfg, lib=True):
    """Run CEGIS; return its result, its classification report, and the
    arguments and result of every verify call."""
    calls = []
    real = cegis.verify

    def recording(expanded, phi, cfg_, *rest):
        vr = real(expanded, phi, cfg_, *rest)
        calls.append((expanded, phi, cfg_, vr))
        return vr

    program = load_with_library(text) if lib else parse_program(text)
    prep = prepare(program, cfg)
    monkeypatch.setattr(cegis, "verify", recording)
    res = run_cegis(prep.expanded, cfg, prep.shape, prep.report)
    monkeypatch.undo()
    return res, prep.report, calls


CEGIS_CASES = [("lang", corpus_text("lang")), ("elimBool", corpus_text("elimBool"))] + [
    (f"scaling{n}", scaling_benchmark(n)) for n in range(3, 9)
]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name,text", CEGIS_CASES, ids=[c[0] for c in CEGIS_CASES])
def test_value_classes_match_exhaustive_on_cegis_candidates(monkeypatch, name, text, depth):
    cfg = SynthesisConfig(input_depth=depth, timeout_secs=120)
    res, _, calls = _recorded_run(monkeypatch, text, cfg)
    assert res.solved
    assert calls
    for expanded, phi, cfg_, vr in calls:
        assert vr.strategy == VALUE_CLASS
        exhaustive = cegis.verify(expanded, phi, cfg_)
        assert exhaustive.strategy == EXHAUSTIVE
        assert _key(vr) == _key(exhaustive)


def _decomposed_check(text, cfg, lib=True):
    program = load_with_library(text) if lib else parse_program(text)
    exp = expand_program(program, cfg.expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
    dec = apply_inductive_decomposition(exp, shape, report)
    assert value_class_blocker(dec.program, shape, report) is None
    return exp, cegis.verify(exp, {}, cfg, shape)


LANG_MUTANTS = {
    "expected": ("", ""),
    "true-as-false": (
        "case TrueS: return new BoolD(v = 1);",
        "case TrueS: return new BoolD(v = 0);",
    ),
    "and-as-or": ("op = new AndOp()", "op = new OrOp()"),
}


@pytest.mark.parametrize("mutant", sorted(LANG_MUTANTS))
def test_value_classes_match_exhaustive_on_lang_expected(mutant):
    old, new = LANG_MUTANTS[mutant]
    text = corpus_text("lang.expected").replace(old, new)
    cfg = SynthesisConfig(input_depth=3, int_domain=(2,))
    exp, vr = _decomposed_check(text, cfg)
    assert vr.strategy == VALUE_CLASS
    exhaustive = cegis.verify(exp, {}, cfg)
    assert _key(vr) == _key(exhaustive)
    assert vr.passed == (mutant == "expected")
    # the class check runs a few hundred harness calls, not 194,943
    assert vr.evaluations < 2000


DEPTH_LIMIT_CASES = {
    "depth2-unroll2": SynthesisConfig(input_depth=2, unroll_depth=2),
    "depth3-unroll4": SynthesisConfig(input_depth=3, unroll_depth=4, int_domain=(2,)),
}


@pytest.mark.parametrize("case", sorted(DEPTH_LIMIT_CASES))
def test_value_classes_match_reference_at_depth_limit(case):
    """The output-depth part of a class: the value-class path must fail
    exactly where the reference evaluator runs out of depth."""
    cfg = DEPTH_LIMIT_CASES[case]
    exp, vr = _decomposed_check(corpus_text("lang.expected"), cfg)
    assert vr.strategy == VALUE_CLASS
    reference = reference_verify(exp, {}, cfg)
    assert not reference.passed and reference.failure.kind == "resource"
    assert _key(vr) == _key(reference)


# -- fallbacks -------------------------------------------------------------------------


# PARITY with a destination interpreter that inspects a nested field: a box
# reaching `f.b` would be forced by the inner switch, so value classes do
# not apply.
NESTED_SWITCH = toys.PARITY.replace(
    "case NotV: if (flagRun(f.b) != 0) { return 0; } else { return 1; }",
    """case NotV: {
      flag g = f.b;
      switch (g) {
        case TrueV: return 0;
        case FalseV: return 1;
        case NotV: return flagRun(g.b);
      }
    }""",
)

# The transformer of test_reading_recursive_result_blocks_morphism, under a
# harness of the inductive shape.
NON_MORPHISM = """
adt L { N {} C { int h; L t; } }
adt M { MN {} MC { int h; M t; } }
int len(L x) { switch (x) { case N: return 0; case C: return 1 + len(x.t); } }
int lenM(M x) { switch (x) { case MN: return 0; case MC: return 1 + lenM(x.t); } }
M f(L x) {
  switch (x) {
    case N: return new MN();
    case C: {
      M r = f(x.t);
      switch (r) {
        case MN: return new MC(h = 0, t = new MN());
        case MC: return new MC(h = 0, t = new MC(h = r.h, t = r.t));
      }
    }
  }
}
harness void main(L x) { assert(len(x) == lenM(f(x))); }
"""

# PARITY with the destination nested in a second ADT (`NotV { wrapF w; }`):
# the helper `notW` switches on the wrapped field, so it inspects the
# structure of a child's translation without going through `flagRun`.
WRAPPED_DEST = """
adt nat { Z {} S1 { nat p; } }
adt flag { TrueV {} FalseV {} NotV { wrapF w; } }
adt wrapF { W { flag d; } }

int parity(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: if (parity(x.p) != 0) { return 0; } else { return 1; }
  }
}

int flagRun(flag f) {
  switch (f) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: return notW(f.w);
  }
}

int notW(wrapF w) {
  switch (w) {
    case W: {
      flag g = w.d;
      switch (g) {
        case TrueV: return 0;
        case FalseV: return 1;
        case NotV: if (notW(g.w) != 0) { return 0; } else { return 1; }
      }
    }
  }
}

flag encode(nat x) {
  switch (x) {
    case Z: return choose(new TrueV(), new FalseV());
    case S1: return choose(new NotV(w = new W(d = encode(x.p))), new TrueV(), new FalseV());
  }
}

harness void main(nat x) {
  assert(parity(x) == flagRun(encode(x)));
}
"""


FALLBACK_CASES = [
    ("gamma", toys.GAMMA, False),
    ("non-morphism", NON_MORPHISM, False),
    ("nested-switch", NESTED_SWITCH, False),
    ("wrapped-dest", WRAPPED_DEST, False),
    ("lIns", corpus_text("lIns"), True),
    ("tIns", corpus_text("tIns"), True),
]


@pytest.mark.parametrize("name,text,lib", FALLBACK_CASES, ids=[c[0] for c in FALLBACK_CASES])
def test_exhaustive_fallback(monkeypatch, name, text, lib):
    cfg = SynthesisConfig(input_depth=3, timeout_secs=120)
    res, report, calls = _recorded_run(monkeypatch, text, cfg, lib=lib)
    assert res.solved
    assert calls and all(vr.strategy == EXHAUSTIVE for *_, vr in calls)
    if name == "non-morphism":
        assert report.verdict == "RecursiveTransformer"
    if name in ("nested-switch", "wrapped-dest"):
        assert report.is_morphism


@pytest.mark.parametrize("name", ["lang", "elimBool"])
def test_strategy_follows_decomposition(monkeypatch, name):
    cfg = SynthesisConfig(input_depth=2, timeout_secs=120)
    _, _, with_dec = _recorded_run(monkeypatch, corpus_text(name), cfg)
    assert with_dec and all(vr.strategy == VALUE_CLASS for *_, vr in with_dec)
    plain = dataclasses.replace(cfg, indecomp=False)
    _, _, without = _recorded_run(monkeypatch, corpus_text(name), plain)
    assert without and all(vr.strategy == EXHAUSTIVE for *_, vr in without)


def _blocker(text, lib):
    program = load_with_library(text) if lib else parse_program(text)
    prep = prepare(program, SynthesisConfig())
    dec = apply_inductive_decomposition(prep.expanded, prep.shape, prep.report)
    return value_class_blocker(dec.program, prep.shape, prep.report)


def test_blocker_names_the_reason():
    assert _blocker(corpus_text("lang.expected"), True) is None
    assert _blocker(corpus_text("lang"), True) is None
    assert _blocker(NESTED_SWITCH, False).startswith("flagRun: field f.b")
    assert _blocker(WRAPPED_DEST, False) == "field NotV.w nests flag in another type"
    assert "not a recursive morphism" in _blocker(NON_MORPHISM, False)
    assert "state" in _blocker(toys.GAMMA, False)


# Source wrappers that the translation drops (`Wrap`) or ignores (`Zero`):
# the output is shallower than the input, so the source interpreter runs out
# of depth first, and on `Zero` only the source interpreter recurses.
WRAPPED_PARITY = """
adt nat { Zero { nat p; } Z {} S1 { nat p; } Wrap { nat p; } }
adt flag { TrueV {} FalseV {} NotV { flag b; } }

int parity(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: if (parity(x.p) != 0) { return 0; } else { return 1; }
    case Wrap: return parity(x.p);
    case Zero: return parity(x.p) * 0;
  }
}

int flagRun(flag f) {
  switch (f) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: if (flagRun(f.b) != 0) { return 0; } else { return 1; }
  }
}

flag encode(nat x) {
  switch (x) {
    case Z: return new FalseV();
    case S1: return new NotV(b = encode(x.p));
    case Wrap: return encode(x.p);
    case Zero: return new FalseV();
  }
}

harness void main(nat x) {
  assert(parity(x) == flagRun(encode(x)));
}
"""


@pytest.mark.parametrize("unroll", [2, 3, 4])
def test_value_classes_match_reference_at_source_depth_limit(unroll):
    """The source-interpreter part of a class: `Zero(Z)` has the value and
    the translation of `Z` but needs one more frame of `parity`."""
    cfg = SynthesisConfig(input_depth=4, unroll_depth=unroll)
    exp, vr = _decomposed_check(WRAPPED_PARITY, cfg, lib=False)
    assert vr.strategy == VALUE_CLASS
    reference = reference_verify(exp, {}, cfg)
    assert _key(vr) == _key(reference)
    assert reference.passed == (unroll >= 4)
    checked = _check_matches_exhaustive(WRAPPED_PARITY, cfg, lib="")
    assert checked.strategy == VALUE_CLASS


# -- `check` against the exhaustive scan ------------------------------------------------


def _check_matches_exhaustive(text, cfg, solution=None, lib=None):
    """`check_concrete`'s result, after asserting that its verdict and
    counterexample are those of the exhaustive scan of the same expansion."""
    vr = check_concrete(text, cfg, solution, lib)
    exp = expand_program(load_with_library(text, lib, solution), cfg.expansion_context())
    exhaustive = cegis.verify(exp, {}, cfg, value_classes=None)
    assert exhaustive.strategy == EXHAUSTIVE
    assert _key(vr) == _key(exhaustive)
    return vr


# Mutants of lang.expected, each with the depth of its first failure under
# ints {2}.  Wrapping the booleans adds a level to every translated
# boolean, so nested `BetweenS` trees outgrow the interpreters' frames only
# at depth 3.
CHECK_MUTANTS = {
    "expected": ("", "", None),
    "true-as-false": LANG_MUTANTS["true-as-false"] + (1,),
    "and-as-or": LANG_MUTANTS["and-as-or"] + (2,),
    "wrapped-bools": (
        """    case TrueS: return new BoolD(v = 1);
    case FalseS: return new BoolD(v = 0);""",
        """    case TrueS: return new BinaryD(op = new AndOp(), a = new BoolD(v = 1), b = new BoolD(v = 1));
    case FalseS: return new BinaryD(op = new OrOp(), a = new BoolD(v = 0), b = new BoolD(v = 0));""",
        3,
    ),
}


@pytest.mark.parametrize("mutant", sorted(CHECK_MUTANTS))
def test_check_matches_exhaustive_on_lang_expected(mutant):
    old, new, fails_at = CHECK_MUTANTS[mutant]
    text = corpus_text("lang.expected")
    assert old in text
    text = text.replace(old, new)
    vr = _check_matches_exhaustive(text, SynthesisConfig(input_depth=3, int_domain=(2,)))
    assert vr.strategy == VALUE_CLASS
    assert vr.passed == (fails_at is None)
    if fails_at is not None:
        assert _depth(vr.args[0]) == fails_at


def _depth(value) -> int:
    """Constructor-nesting depth of a native value."""
    if not isinstance(value, tuple):
        return 0
    return 1 + max(map(_depth, value[1:]), default=0)


SOLVED_CASES = {
    **{name: (corpus_text(name), None) for name in ("elimBool", "lIns", "tIns", "lang")},
    **{f"scaling{n}": (scaling_benchmark(n), None) for n in range(3, 9)},
    "gamma": (toys.GAMMA, ""),
}


@functools.lru_cache(maxsize=None)
def _solution(name):
    text, lib = SOLVED_CASES[name]
    res = synthesize(text, SynthesisConfig(input_depth=2, timeout_secs=120), lib)
    assert res.solved
    return pretty_print_program(res.solution)


@pytest.mark.parametrize("unroll", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(set(SOLVED_CASES) - {"gamma"}))
def test_check_matches_exhaustive_on_solutions(name, unroll):
    text, lib = SOLVED_CASES[name]
    cfg = SynthesisConfig(input_depth=2, unroll_depth=unroll)
    vr = _check_matches_exhaustive(text, cfg, _solution(name), lib)
    assert (vr.strategy == VALUE_CLASS) == (name not in ("lIns", "tIns"))


@pytest.mark.parametrize("name", ["gamma", "lIns", "tIns"])
def test_check_stays_exhaustive_where_classes_do_not_apply(name):
    text, lib = SOLVED_CASES[name]
    vr = _check_matches_exhaustive(text, SynthesisConfig(input_depth=3), _solution(name), lib)
    assert vr.strategy == EXHAUSTIVE


def test_check_makes_each_step_once(monkeypatch):
    """`check` parses, decomposes and compiles once, each through the
    module global that a caller can wrap (the benchmark's tracer does)."""
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(cegis, "apply_inductive_decomposition")
    counting(cegis, "compile_concrete")
    counting(pipeline, "load_with_library")
    vr = check_concrete(corpus_text("lang.expected"), SynthesisConfig(input_depth=2))
    assert vr.passed and vr.strategy == VALUE_CLASS
    assert sorted(calls) == [
        "apply_inductive_decomposition", "compile_concrete", "load_with_library"
    ]
