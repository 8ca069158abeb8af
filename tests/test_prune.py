"""The search never tries a control value that fails at its own read.

`CompiledProgram.dead_from` holds, for each point, the least value from
which every value fails right at the point's read: an index past the end
of an array of static length, or a choice arm after the last one that does
not fail at once.  These tests pin each rule on a toy against the oracle
`reference_dead_from`, and check that the pruned search ends where the
unpruned one does (a `LazyBinder` that knows no dead values), with the
same verdict, bindings and trail, and no more evaluations.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synrec.cegis import LazyBinder, SynthesisConfig, SynthesisStats, _search, iter_inputs
from synrec.expand import expand_program
from synrec.indecomp import apply_inductive_decomposition, classify_transformer, detect_spec_shape
from synrec.parser import parse_program
from synrec.pipeline import load_with_library, synthesize
from synrec.scaling import MAX_VARIANTS, MIN_VARIANTS, scaling_benchmark

import toys
from conftest import reference_dead_from, search_program

_NAT = """
adt nat { Z {} S1 { nat p; } }
int count(nat x) { switch (x) { case Z: return 0; case S1: return 1 + count(x.p); } }
"""

# A hole indexing an empty array fails at every value: only the first is
# tried.  The choice's failing arm comes first, so the choice keeps it.
EMPTY_INDEX = _NAT + """
harness void main(nat x) {
  int[] a = {};
  int y = choose(a[??], count(x));
  assert(y == count(x));
}
"""

# Holes indexing arrays of two and three elements, a `let`-bound one and a
# literal, under the hole domain 0..3.
SHORT_INDEX = _NAT + """
harness void main(nat x) {
  int[] b = {7, 8};
  int y = b[??] + count(x);
  assert(y == {5, 6, 8}[??] + count(x));
}
"""

# The trailing `unreachable` arms are dead, and the search reaches them
# under the first two values of `k`; the leading one is tried.
TRAILING_FAIL = _NAT + """
harness void main(nat x) {
  int k = ??;
  int y = choose(unreachable<int>, count(x) + k, unreachable<int>, unreachable<int>);
  assert(y == count(x) + 2);
}
"""

# A choice whose arms all fail is dead from 1 and fails itself, so the arm
# of the outer choice that it is fails too.
ALL_FAIL = _NAT + """
harness void main(nat x) {
  int[] a = {};
  int k = ??;
  int y = choose(count(x) + k, choose(unreachable<int>, a[??]));
  assert(y == count(x) + 1);
}
"""

# toy -> the dead value of each point that has one, by control id
DEAD = {
    "EMPTY_INDEX": {0: 0},
    "SHORT_INDEX": {0: 2, 1: 3},
    "TRAILING_FAIL": {1: 2},
    "ALL_FAIL": {1: 0, 2: 1, 3: 1},
    # an array whose first element fails, as is or spilled to a temporary
    "ARRAY_HEAD_FAIL": {1: 1},
    "SPILLED_FAIL": {1: 1},
}
TOYS = {name: globals().get(name) or getattr(toys, name) for name in DEAD}

CFG = SynthesisConfig(input_depth=2)


@functools.lru_cache(maxsize=None)
def _case(name: str, decompose: bool):
    """The expansion (decomposed when asked and possible), its compiled
    search program and its inputs up to depth 2."""
    if name in TOYS:
        program = parse_program(TOYS[name])
    elif name.startswith("scaling"):
        program = load_with_library(scaling_benchmark(int(name.removeprefix("scaling"))))
    else:
        program = parse_program(getattr(toys, name))
    exp = expand_program(program, CFG.expansion_context())
    harness = exp.program.harnesses[0]
    shape = detect_spec_shape(exp.program, harness) if decompose else None
    if shape is not None:
        report = classify_transformer(exp.program.function(shape.trans), shape.source_adt)
        exp = apply_inductive_decomposition(exp, shape, report)
    inputs = list(iter_inputs(exp.program, harness, CFG))
    return exp, search_program(exp, CFG, shape), inputs


def _both(exp, compiled, cexs):
    """The pruned and the unpruned search on `cexs`: (binder, found, stats)
    each."""
    runs = []
    for binder in (None, LazyBinder(exp.control_space)):
        stats = SynthesisStats()
        binder, found = _search(exp, compiled, cexs, None, stats, binder)
        runs.append((binder, found, stats))
    return runs


@pytest.mark.parametrize("name", DEAD)
def test_each_rule_on_a_toy(name):
    exp, compiled, inputs = _case(name, False)
    assert reference_dead_from(exp) == DEAD[name]
    (pruned, found, stats), (plain, plain_found, plain_stats) = _both(exp, compiled, inputs)
    # the program compiled whole, so every point's dead value is known
    assert compiled.dead_from == DEAD[name]
    assert found and plain_found
    assert (pruned, pruned.trail) == (plain, plain.trail)
    assert stats.search_evaluations < plain_stats.search_evaluations
    assert stats.skipped_candidates > 0 == plain_stats.skipped_candidates


def test_an_unsatisfiable_toy_is_exhausted_alike():
    """Two holes into arrays of two elements that never hold equal values:
    both searches exhaust the space.  The pruned one skips the two
    out-of-range values of the second hole under each value of the first,
    and then those of the first."""
    text = _NAT + """
harness void main(nat x) {
  int[] a = {1, 2};
  int[] b = {3, 4};
  int y = a[??];
  assert(y == b[??]);
}
"""
    exp = expand_program(parse_program(text), CFG.expansion_context())
    compiled = search_program(exp, CFG)
    inputs = list(iter_inputs(exp.program, exp.program.harnesses[0], CFG))
    (pruned, found, stats), (plain, plain_found, plain_stats) = _both(exp, compiled, inputs[:1])
    assert not found and not plain_found
    assert pruned.trail == plain.trail == []
    # unpruned, an out-of-range value of the first hole fails before the
    # second hole is read
    assert (stats.search_evaluations, plain_stats.search_evaluations) == (2 * 2, 2 * 4 + 2)
    assert stats.skipped_candidates == 2 * 2 + 2


def test_synthesis_reports_the_skipped_candidates():
    res = synthesize(scaling_benchmark(4), SynthesisConfig())
    assert res.solved and res.stats.skipped_candidates > 0
    assert res.stats.to_json()["skipped_candidates"] == res.stats.skipped_candidates


CASES = [
    (f"scaling{n}", decompose)
    for n in range(MIN_VARIANTS, MAX_VARIANTS + 1)
    for decompose in (False, True)
] + [(name, False) for name in DEAD] + [
    (name, decompose) for name in ("PARITY", "SHIFT", "GAMMA") for decompose in (False, True)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2**32 - 1))
def test_pruning_skips_only_failing_candidates(case, seed):
    """On random counterexample lists, the pruned search ends with the
    unpruned search's verdict, bindings and trail, in no more evaluations;
    and every point it bound has the dead value the oracle finds."""
    exp, compiled, inputs = _case(*case)
    rng = random.Random(seed)
    cexs = rng.sample(inputs, rng.randint(1, min(5, len(inputs))))
    (pruned, found, stats), (plain, plain_found, plain_stats) = _both(exp, compiled, cexs)
    assert found == plain_found
    assert (pruned, pruned.trail) == (plain, plain.trail)
    assert stats.search_evaluations <= plain_stats.search_evaluations
    oracle = reference_dead_from(exp)
    assert {cp: compiled.dead_from.get(cp) for cp in pruned} == {
        cp: oracle.get(cp) for cp in pruned
    }
