import itertools

import pytest

from synrec.ast import BoxMake, Call, children, rebuild, walk
from synrec.cegis import SynthesisConfig, enumerate_values
from synrec.evaluator import EvalLimits, evaluate_harness
from synrec.expand import expand_program
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

import toys
from conftest import corpus_text, count_self_calls

LIMITS = EvalLimits(max_depth=30)


def expand_text(text):
    return expand_program(parse_program(text), SynthesisConfig().expansion_context())


# -- detection ----------------------------------------------------------------


def test_detects_running_example_shape(lang_program):
    exp = expand_program(lang_program, SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    assert shape is not None
    assert shape.trans == "desugar"
    assert shape.interp_s == "srcInterpret"
    assert shape.interp_d == "dstInterpret"
    assert shape.source_adt == "srcAST"
    assert shape.dest_adt == "dstAST"


def test_detection_handles_swapped_equality(lang_text):
    text = lang_text.replace(
        "assert(srcInterpret(exp) == dstInterpret(desugar(exp)));",
        "assert(dstInterpret(desugar(exp)) == srcInterpret(exp));",
    )
    exp = expand_program(load_with_library(text), SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    assert shape is not None and shape.trans == "desugar"


def test_no_shape_without_trans_nesting():
    p = parse_program(
        """
        adt L { N {} }
        int f(L x) { return 0; }
        int g(L x) { return 0; }
        harness void m(L x) { assert(f(x) == g(x)); }
        """
    )
    assert detect_spec_shape(p, p.harnesses[0]) is None


def test_no_shape_with_extra_asserts(lang_text):
    text = lang_text.replace(
        "assert(srcInterpret(exp) == dstInterpret(desugar(exp)));",
        "assert(1); assert(srcInterpret(exp) == dstInterpret(desugar(exp)));",
    )
    exp = expand_program(load_with_library(text), SynthesisConfig().expansion_context())
    assert detect_spec_shape(exp.program, exp.program.harnesses[0]) is None


def test_generalized_shape_with_abstraction():
    exp = expand_text(toys.GAMMA)
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    assert shape is not None
    assert shape.trans == "conv"
    assert shape.extra_params == ("s",)
    assert shape.abstraction == "ident"
    assert shape.gamma_arg is not None


def test_gamma_without_annotation_is_not_detected():
    text = toys.GAMMA.replace("@abstracts(ident, s, g)\n", "")
    exp = expand_text(text)
    assert detect_spec_shape(exp.program, exp.program.harnesses[0]) is None


# -- classification --------------------------------------------------------------


def test_expanded_desugar_is_morphism(lang_program):
    exp = expand_program(lang_program, SynthesisConfig().expansion_context())
    report = classify_transformer(exp.program.function("desugar"), "srcAST")
    assert report.verdict == MORPHISM
    details = {d.variant: d.recursed_fields for d in report.details}
    assert details["BetweenS"] == ("a", "b", "c")
    assert details["BinaryS"] == ("a", "b")
    assert details["NumS"] == ()


def test_interpreter_is_transformer_not_morphism(lang_program):
    exp = expand_program(lang_program, SynthesisConfig().expansion_context())
    report = classify_transformer(exp.program.function("srcInterpret"), "srcAST")
    assert report.verdict == TRANSFORMER


def test_non_switch_body_is_other():
    p = parse_program("adt L { N {} } L f(L x) { return f(x); }")
    assert classify_transformer(p.function("f"), "L").verdict == OTHER


def test_recursion_on_non_field_is_other():
    p = parse_program(
        """
        adt L { N {} C { L t; } }
        L f(L x) {
          switch (x) {
            case N: return new N();
            case C: return f(f(x.t));
          }
        }
        """
    )
    assert classify_transformer(p.function("f"), "L").verdict == OTHER


def test_reading_recursive_result_blocks_morphism():
    p = parse_program(
        """
        adt L { N {} C { int h; L t; } }
        L f(L x) {
          switch (x) {
            case N: return new N();
            case C: {
              L r = f(x.t);
              switch (r) {
                case N: return new N();
                case C: return new C(h = 0, t = x.t);
              }
            }
          }
        }
        """
    )
    assert classify_transformer(p.function("f"), "L").verdict == TRANSFORMER


# -- the rewrite -------------------------------------------------------------------


def test_decomposition_eliminates_self_calls(lang_program):
    exp = expand_program(lang_program, SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function("desugar"), "srcAST")
    dec = apply_inductive_decomposition(exp, shape, report)
    assert count_self_calls(dec.program.function("desugar")) == 0
    # control space untouched
    assert dec.control_space == exp.control_space


def _rebuilt_everywhere(e, trans, ret):
    """The rewrite with every node rebuilt, shared subtrees or not."""
    if isinstance(e, Call) and e.callee == trans:
        args = [_rebuilt_everywhere(a, trans, ret) for a in e.args]
        return BoxMake(trans, args[0], args[1] if len(args) > 1 else None, ret, span=e.span)
    return rebuild(e, [_rebuilt_everywhere(c, trans, ret) for c in children(e)])


@pytest.mark.parametrize("name", ["lang", "elimBool", "scaling8"])
def test_decomposition_rebuilds_only_the_paths_to_self_calls(name):
    text = scaling_benchmark(8) if name == "scaling8" else corpus_text(name)
    exp = expand_program(load_with_library(text), SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
    dec = apply_inductive_decomposition(exp, shape, report)
    old = exp.program.function(shape.trans)
    new = dec.program.function(shape.trans)
    assert new.body == _rebuilt_everywhere(old.body, shape.trans, old.ret)
    # a subtree without a self-call is the expansion's own node
    calls = {id(n) for n in walk(old.body) if isinstance(n, Call) and n.callee == shape.trans}
    kept = [n for n in walk(old.body) if not any(id(m) in calls for m in walk(n))]
    assert kept
    shared = {id(n) for n in walk(new.body)}
    assert all(id(n) in shared for n in kept)


def test_other_classification_refuses(lang_program):
    exp = expand_program(lang_program, SynthesisConfig().expansion_context())
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    from synrec.indecomp import ClassificationReport

    dec = apply_inductive_decomposition(exp, shape, ClassificationReport(OTHER))
    assert dec.program == exp.program
    assert not dec.decomposed
    assert dec.blocker == "desugar is not a recursive transformer"


# -- soundness + completeness on fully enumerable toys ------------------------------


def phi_space(exp):
    points = exp.control_space
    domains = [range(p.lo, p.hi + 1) for p in points]
    for combo in itertools.product(*domains):
        yield dict(zip((p.id for p in points), combo))


def all_sigmas(exp, depth=3):
    cfg = SynthesisConfig(input_depth=depth)
    harness = exp.program.harnesses[0]
    pools = [
        enumerate_values(exp.program, t, depth, cfg) for _, t in harness.params
    ]
    names = [n for n, _ in harness.params]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def passing_set(exp, decomp, depth=3):
    prog = exp.program
    result = set()
    sigmas = list(all_sigmas(exp, depth))
    for i, phi in enumerate(phi_space(exp)):
        if all(
            evaluate_harness(prog, phi, s, LIMITS, decomposition=decomp).passed
            for s in sigmas
        ):
            result.add(i)
    return result


@pytest.mark.parametrize("toy", ["PARITY", "SHIFT", "GAMMA"])
def test_decomposition_theorem_on_toys(toy):
    """{phi : bounded-Pass} is identical with and without the rewrite."""
    exp = expand_text(getattr(toys, toy))
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    assert shape is not None
    report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
    assert report.verdict == MORPHISM
    dec = apply_inductive_decomposition(exp, shape, report)
    plain = passing_set(exp, None)
    boxed = passing_set(dec, shape)
    assert plain == boxed
    assert plain, "toy should have at least one passing assignment"


def test_case_decoupling_on_parity():
    """With decomposition, an arm's points are read only by inputs rooted at
    that arm's variant."""
    from synrec.cegis import LazyBinder
    from synrec.evaluator import VRecord

    exp = expand_text(toys.PARITY)
    shape = detect_spec_shape(exp.program, exp.program.harnesses[0])
    report = classify_transformer(exp.program.function("encode"), "nat")
    dec = apply_inductive_decomposition(exp, shape, report)
    z = VRecord("Z", {})
    s1 = VRecord("S1", {"p": VRecord("S1", {"p": z})})
    reads = {}
    for name, sigma in (("Z", z), ("S1", s1)):
        binder = LazyBinder(dec.control_space)
        evaluate_harness(dec.program, binder, {"x": sigma}, LIMITS, decomposition=shape)
        reads[name] = set(binder.trail)
    assert reads["Z"].isdisjoint(reads["S1"])
