"""Expansion parity pin: what `expand_program` produces, forced in full
(`force_expansion`), spans included.

Each source is loaded with `load_with_library`, expanded under one of four
contexts, and pinned by the first 16 hex digits of the sha256 of
`repr(program)`, the span of every expression node in `walk` order, and
the `repr` of every control point (id, kind, lo, hi, ty and origin).  A
change to the expander that keeps every expansion, its control space and
its read order identical keeps every entry.
"""

import hashlib

import pytest

from synrec.ast import walk
from synrec.cegis import SynthesisConfig
from synrec.expand import expand_program
from synrec.instances import force_expansion
from synrec.pipeline import load_with_library
from synrec.scaling import scaling_benchmark

from conftest import CORPUS, corpus_text

# Template instances that repeat and that fail: `bump` binds a let and,
# given a call, a let-bound argument; `wrong` fails after it has made a
# hole and a fresh name, so a choice drops it and keeps its point; and
# `twice` expands its argument twice, so the second expansion of
# `wrong(7)` and of `bump(5)` repeats the first.
TEMPLATES = """
adt nat { Z {} S { nat p; } }
adt pair { P { int a; int b; } }

generator int bump(int x) {
  int t = x + ??;
  return choose(t, t * ??);
}

generator int wrong(int x) {
  int u = x + ??;
  return new P(a = u, b = u);
}

generator T twice<T>(fun f) {
  return choose(f(), f());
}

int size(nat n) {
  switch (n) {
    case Z: return bump(1 + ??) + choose(wrong(2), bump(3));
    case S: return bump(bump(size(n.p))) + choose(twice(wrong(7)), twice(bump(5)), 0);
  }
}

harness void main(nat n) {
  assert(size(n) >= 0);
}
"""

CONTEXTS = {
    "default": SynthesisConfig().expansion_context(),
    "inline1": SynthesisConfig(inline_bound=1).expansion_context(),
    "inline4": SynthesisConfig(inline_bound=4).expansion_context(),
    "holes0..1": SynthesisConfig(hole_lo=0, hole_hi=1).expansion_context(),
}

# (source, context) -> digest of the expansion
EXPANSIONS = {
    ("elimBool", "default"): "b029c64d4ed1d643",
    ("elimBool", "inline1"): "18b9a30d5f4ea507",
    ("elimBool", "inline4"): "9baf7144273db670",
    ("elimBool", "holes0..1"): "1908028ab724dc77",
    ("lIns", "default"): "5c402b7e628ca640",
    ("lIns", "inline1"): "5c402b7e628ca640",
    ("lIns", "inline4"): "5c402b7e628ca640",
    ("lIns", "holes0..1"): "5c402b7e628ca640",
    ("lang", "default"): "b60f6f967d45e00f",
    ("lang", "inline1"): "7cb4e6bf2973e320",
    ("lang", "inline4"): "0f83ac74d005f85f",
    ("lang", "holes0..1"): "aac87dd64ab884f3",
    ("lang.expected", "default"): "d9ed8e3a3816552a",
    ("lang.expected", "inline1"): "d9ed8e3a3816552a",
    ("lang.expected", "inline4"): "d9ed8e3a3816552a",
    ("lang.expected", "holes0..1"): "d9ed8e3a3816552a",
    ("tIns", "default"): "47c9d25f10da9967",
    ("tIns", "inline1"): "47c9d25f10da9967",
    ("tIns", "inline4"): "47c9d25f10da9967",
    ("tIns", "holes0..1"): "47c9d25f10da9967",
    ("lang+lang.expected", "default"): "d9ed8e3a3816552a",
    ("lang+lang.expected", "inline1"): "d9ed8e3a3816552a",
    ("lang+lang.expected", "inline4"): "d9ed8e3a3816552a",
    ("lang+lang.expected", "holes0..1"): "d9ed8e3a3816552a",
    ("scaling3", "default"): "3a3c56d49a341e43",
    ("scaling3", "inline1"): "659c528616d39025",
    ("scaling3", "inline4"): "841324bbc5486c2f",
    ("scaling3", "holes0..1"): "4ea0e50a151c6e10",
    ("scaling4", "default"): "03d6f0c7da91650c",
    ("scaling4", "inline1"): "a265f948dd5882b9",
    ("scaling4", "inline4"): "6501bb331695d5e2",
    ("scaling4", "holes0..1"): "22e85ace12db2c60",
    ("scaling5", "default"): "db9ec53a0e87a1ef",
    ("scaling5", "inline1"): "cd1c8f5fbbb9b7cf",
    ("scaling5", "inline4"): "d572ee200ec5fe46",
    ("scaling5", "holes0..1"): "ae551d5a5ded0931",
    ("scaling6", "default"): "f3d869a95ccd4c71",
    ("scaling6", "inline1"): "8334d032d8fc1d63",
    ("scaling6", "inline4"): "0922c6d812060d68",
    ("scaling6", "holes0..1"): "2ac0e9ac877d7844",
    ("scaling7", "default"): "c950121ed2180a7a",
    ("scaling7", "inline1"): "d34561518aaf6ed6",
    ("scaling7", "inline4"): "f5f0b38e368da927",
    ("scaling7", "holes0..1"): "4a35d2166c0a2f48",
    ("scaling8", "default"): "2b2730fd8c1f3c14",
    ("scaling8", "inline1"): "aedcb2954dd938d6",
    ("scaling8", "inline4"): "0aa60bbfeb4410dd",
    ("scaling8", "holes0..1"): "f11e4f10afad5eb5",
    ("templates", "default"): "f6f8c50a0f464208",
    ("templates", "inline1"): "f6f8c50a0f464208",
    ("templates", "inline4"): "f6f8c50a0f464208",
    ("templates", "holes0..1"): "dfafab532f2fc1b4",
}


def _load(source: str):
    if source == "templates":
        return load_with_library(TEMPLATES)
    if source.startswith("scaling"):
        return load_with_library(scaling_benchmark(int(source.removeprefix("scaling"))))
    program, _, solution = source.partition("+")
    return load_with_library(
        corpus_text(program), None, corpus_text(solution) if solution else None
    )


def _fingerprint(expanded) -> str:
    parts = [repr(expanded.program)]
    for f in expanded.program.functions:
        parts.extend(repr(node.span) for node in walk(f.body))
    parts.extend(repr(p) for p in expanded.control_space)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def test_every_corpus_program_is_pinned():
    corpus = {p.name.removesuffix(".synrec") for p in CORPUS.glob("*.synrec")}
    pinned = {source for source, _ in EXPANSIONS}
    assert corpus <= pinned


@pytest.mark.parametrize("source,context", sorted(EXPANSIONS))
def test_expansion_is_pinned(source, context):
    expanded = force_expansion(expand_program(_load(source), CONTEXTS[context]))
    assert _fingerprint(expanded) == EXPANSIONS[source, context]
