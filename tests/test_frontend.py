"""Front-end parity pin: what a load produces, spans included.

Each source is loaded with `load_with_library` and pinned by the first 16
hex digits of the sha256 of `repr(program)` followed by the span of every
declaration and of every expression node in `walk` order.  Spans are
excluded from the nodes' `repr`, so they are pinned on their own.  A
change to the tokenizer or the parser that keeps every load identical
keeps every entry.
"""

import hashlib

import pytest

from synrec.ast import walk
from synrec.errors import ParseError
from synrec.parser import parse
from synrec.pipeline import load_with_library
from synrec.scaling import scaling_benchmark

from conftest import CORPUS, corpus_text

# source -> digest of the loaded program and its spans
LOADS = {
    "elimBool": "afea175f576442ae",
    "lIns": "0bad5f38116b6230",
    "lang": "ff9ee682d6005546",
    "lang.expected": "1f1d0b2980e73694",
    "tIns": "23bd87aa4bf7d93e",
    "lang+lang.expected": "1f1d0b2980e73694",
    "scaling3": "6a226bbe4652ba04",
    "scaling4": "4b46f36c2db78322",
    "scaling5": "8ab6ebb19ac5718b",
    "scaling6": "59c1ab6cb3a2e882",
    "scaling7": "0bd4b0d6bb9c8f03",
    "scaling8": "16e80269fac96fda",
}

# malformed source -> the ParseError text, with its line:col
MALFORMED = {
    "int f() { return x?; }": "1:18: stray '?' after 'x'",
    "int f() { return ? ; }": "1:18: unexpected character '?'",
    "// a comment line\nint f() { return #; }": "2:18: unexpected character '#'",
    "int f() {\n  int y = 1;\n  return y;": "3:12: expected '}', found 'end of input'",
}


def _load(source: str):
    if source.startswith("scaling"):
        return load_with_library(scaling_benchmark(int(source.removeprefix("scaling"))))
    program, _, solution = source.partition("+")
    return load_with_library(
        corpus_text(program), None, corpus_text(solution) if solution else None
    )


def _fingerprint(program) -> str:
    parts = [repr(program)]
    for adt in program.adts:
        parts.append(repr(adt.span))
        parts.extend(repr(v.span) for v in adt.variants)
    for f in program.functions:
        parts.append(repr(f.span))
        parts.extend(repr(a.span) for a in f.annotations)
        parts.extend(repr(node.span) for node in walk(f.body))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def test_every_corpus_program_is_pinned():
    corpus = {p.name.removesuffix(".synrec") for p in CORPUS.glob("*.synrec")}
    assert corpus <= LOADS.keys()


@pytest.mark.parametrize("source", sorted(LOADS))
def test_load_is_pinned(source):
    assert _fingerprint(_load(source)) == LOADS[source]


@pytest.mark.parametrize("source", sorted(MALFORMED))
def test_parse_error_is_pinned(source):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == MALFORMED[source]
