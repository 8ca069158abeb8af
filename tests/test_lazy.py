"""Instances that stay `_Use`s in choice arms, against the expansion in full.

Differential properties over the scaling family (2 to 8 source variants),
inline bounds 1 to 3, and decomposition on and off:

- the expansion forced in full (`force_expansion`) equals the expansion
  unfolded on demand, one `_Use` at a time as the evaluator and
  `concretize` do, in `repr`, spans and control space, and it passes the
  expander's postconditions node by node;
- under random total assignments, which select arms that a search never
  would, the program compiled with its arms compiled on first run and the
  reference evaluator agree on every input up to depth 2, on the verdict
  and on the kind of failure; and its translation returns what the
  expansion forced in full and compiled in one piece returns;
- forced in full at inline bound 4, the expansion holds an expression of
  over ten thousand characters, and it still compiles in one piece.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from synrec import compiled

from synrec.ast import children, rebuild, replace, walk
from synrec.cegis import SynthesisConfig, compile_run, iter_inputs
from synrec.compiled import CAssertFail, CExhausted, CInfeasible, compile_concrete
from synrec.evaluator import evaluate_harness
from synrec.expand import expand_program
from synrec.instances import _Use, force_expansion, validate_expansion
from synrec.pipeline import load_with_library, prepare
from synrec.scaling import MAX_VARIANTS, MIN_VARIANTS, scaling_benchmark

from conftest import reference_sigma
from test_expansion_pin import _fingerprint

VARIANTS = st.integers(MIN_VARIANTS, MAX_VARIANTS)
BOUNDS = st.integers(1, 3)


def _unfolded(e):
    """`e` with each `_Use` replaced by its `unfold`, recursively."""
    if type(e) is _Use:
        return _unfolded(e.unfold())
    return rebuild(e, [_unfolded(c) for c in children(e)])


@settings(max_examples=30, deadline=None)
@given(VARIANTS, BOUNDS)
def test_forced_expansion_is_the_expansion_unfolded_on_demand(n, bound):
    ctx = SynthesisConfig(inline_bound=bound).expansion_context()
    lazy = expand_program(load_with_library(scaling_benchmark(n)), ctx)
    forced = force_expansion(lazy)
    funcs = tuple(replace(f, body=_unfolded(f.body)) for f in lazy.functions)
    on_demand = replace(lazy, program=replace(lazy.program, functions=funcs))
    assert _fingerprint(forced) == _fingerprint(on_demand)
    assert repr(lazy.program) == repr(forced.program)
    # every control node of the full expansion, each once
    validate_expansion(forced)
    ids = [e.cp for f in forced.functions for e in walk(f.body) if hasattr(e, "cp")]
    assert len(ids) == len(set(ids)) and set(ids) <= set(range(len(lazy.control_space)))
    if bound == 3:  # below it, no template holds enough to stay a `_Use`
        assert any(type(e) is _Use for f in lazy.functions for e in walk(f.body))


def _run(prog, name, phi, args):
    """The result of `name` on `args`, or the kind of its failure."""
    prog.bind_controls(phi.__getitem__)
    try:
        return prog.func(name)(*args)
    except CAssertFail:
        return "assert_failed"
    except (CInfeasible, IndexError):
        return "infeasible"
    except CExhausted:
        return "resource"


@settings(max_examples=40, deadline=None)
@given(VARIANTS, BOUNDS, st.booleans(), st.integers(0, 2**32 - 1))
def test_arms_compiled_on_first_run_match_the_evaluator(n, bound, decompose, seed):
    cfg = SynthesisConfig(inline_bound=bound, input_depth=2, indecomp=decompose)
    prep = prepare(load_with_library(scaling_benchmark(n)), cfg)
    exp = prep.expanded
    # bound to run as the plain program, decomposed or not
    compiled, _, _ = compile_run(exp, cfg, prep.shape, prep.report)
    whole = compile_concrete(force_expansion(exp).program, None, cfg.effective_unroll)
    harness = exp.program.harnesses[0]
    rng = random.Random(seed)
    for _ in range(20):
        phi = {p.id: rng.randint(p.lo, p.hi) for p in exp.control_space}
        for args in iter_inputs(exp.program, harness, cfg):
            sigma = reference_sigma(exp.program, harness, args)
            want = evaluate_harness(exp.program, phi, sigma, cfg.eval_limits()).kind
            got = _run(compiled, harness.name, phi, args)
            assert (want, got) in (("pass", None), (want, want)), args
            assert _run(compiled, "lower", phi, args) == _run(whole, "lower", phi, args)


def test_a_long_forced_expansion_compiles_in_one_piece(monkeypatch):
    """Nothing is outlined: forced in full at inline bound 4, scaling n=8
    holds an expression of over ten thousand characters, which compiles
    in one piece and agrees with the program whose arms compile on first
    run."""
    cfg = SynthesisConfig(inline_bound=4, input_depth=2)
    exp = expand_program(load_with_library(scaling_benchmark(8)), cfg.expansion_context())
    sources = []

    def recording_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(compiled, "compile", recording_compile, raising=False)
    whole = compile_concrete(force_expansion(exp).program, None, cfg.effective_unroll)
    assert len(sources) == 1
    assert max(map(len, sources[0].splitlines())) > 10_000
    lazy = compile_concrete(exp.program, None, cfg.effective_unroll)
    harness = exp.program.harnesses[0]
    rng = random.Random(4)
    for _ in range(5):
        phi = {p.id: rng.randint(p.lo, p.hi) for p in exp.control_space}
        for args in iter_inputs(exp.program, harness, cfg):
            assert _run(lazy, "lower", phi, args) == _run(whole, "lower", phi, args)
