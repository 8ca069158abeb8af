"""Front-end parity pin: what a load produces, spans included.

Each source is loaded with `load_with_library` and pinned by the first 16
hex digits of the sha256 of `repr(program)` followed by the span of every
declaration and of every expression node in `walk` order.  Spans are
excluded from the nodes' `repr`, so they are pinned on their own.  A
change to the tokenizer or the parser that keeps every load identical
keeps every entry.

Besides the corpus and the scaling family, the sources include toys
(`TOYS`) for the paths that no corpus program takes: the tokenizer's edge
inputs, statements that the parser desugars into nested lets, and the
printer's rendering of those lets.
"""

import hashlib
import re

import pytest

from synrec.ast import walk
from synrec.errors import PrintError, SynrecError
from synrec.parser import parse_program
from synrec.pipeline import load_with_library
from synrec.printer import pretty_print_program
from synrec.scaling import scaling_benchmark

from conftest import CORPUS, corpus_text

LIST = "adt L { Nil {} Cons { int h; L t; } }\n"

# toy source -> its text
TOYS = {
    # the tokenizer's edge inputs
    "empty": "",
    "comment-only": "// nothing but a comment",
    "lang.expected-crlf": corpus_text("lang.expected").replace("\n", "\r\n"),
    "lang.expected-tabs": re.sub(
        "(?m)^(?:  )+", lambda m: "\t" * (len(m[0]) // 2), corpus_text("lang.expected")
    ),
    "lIns-last-line-comment": corpus_text("lIns").rstrip("\n") + "\n// no newline after me",
    # `return;`, an empty block, an `if` and a `switch` followed by more
    # statements, and `-` of a variable
    "statements-after-if-and-switch": LIST
    + """harness void h(L l, int x) {
  if (x == 0) {
    return;
  }
  switch (l) {
    case Nil: assert(x == x);
    case Cons: assert(l.h == l.h);
  }
  assert(-x == 0 - x);
}
""",
    # blocks followed by more statements, each block holding a declaration
    # before an `if`, a `switch` or a `case?` switch
    "statements-after-blocks": LIST
    + """int f(L l, int x) {
  { int y = x; if (y == 0) { assert(x == 0); } }
  { int z = x; switch (l) { case Nil: assert(z == x); case Cons: assert(z == x); } }
  { int w = x; switch (l) { case?: assert(w == x); } }
  return -x;
}
""",
    # an empty block and an expression statement that starts with no
    # identifier, each followed by more statements
    "empty-statements": """harness void h(int x) {
  {}
  (x == 0);
  if (x == 0) { }
  assert(x != 1 || x == 1);
}
""",
    "choice": "int f(int x) { return choose(x, -x); }\n",
}

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
    "empty": "302722a36acdc108",
    "comment-only": "302722a36acdc108",
    # CRLF line endings load as LF ones: the digest of lang.expected
    "lang.expected-crlf": "1f1d0b2980e73694",
    "lang.expected-tabs": "4382a027f291b314",
    "lIns-last-line-comment": "0bad5f38116b6230",
    "statements-after-if-and-switch": "2c2e2fb3798057e6",
    "statements-after-blocks": "a17347d49ce6b71c",
    "empty-statements": "2906bb0a2ffc9a87",
    "choice": "cdf8c2f4e1acf21d",
}

# malformed source -> the error of `parse_program`, with its line:col
MALFORMED = {
    "int f() { return x?; }": "1:18: stray '?' after 'x'",
    "int f() { return ? ; }": "1:18: unexpected character '?'",
    "// a comment line\nint f() { return #; }": "2:18: unexpected character '#'",
    "int f() {\n  int y = 1;\n  return y;": "3:12: expected '}', found 'end of input'",
    "int f() {\r\n  return #; }": "2:10: unexpected character '#'",
    "int f() {\n\treturn #; }": "2:9: unexpected character '#'",
    "int f() {\n  return 1;\n// no newline": "3:14: expected '}', found 'end of input'",
    # parse errors
    "adt 1 { A {} }": "1:5: expected ADT name, found '1'",
    "int f<T>(int x) { return x; }": "1:1: type parameters are only allowed on generators",
    "int f(int x) { switch (x) { } }": "1:16: switch with no cases",
    "int f() { return choose(); }": "1:18: choose needs at least one alternative",
    "int f() { return 1; return 2; }": "1:21: unreachable code after return",
    # resolution errors
    LIST + "int f(L l) { switch (m) { case Nil: return 1; } }":
        "2:14: switch scrutinee 'm' is not a variable in scope",
    LIST + "int f(L l) { switch (l) { case None: return 1; } }":
        "2:14: unknown variant 'None'",
    LIST + "L f() { return new None(); }": "2:16: unknown variant 'None'",
    LIST + "L f() { return new Cons(h = 1, h = 2); }":
        "2:16: duplicate field in constructor 'Cons'",
    LIST + "L f() { return new Cons(h = 1); }":
        "2:16: constructor 'Cons' needs fields ['h', 't'], got ['h']",
    LIST + "adt L { Leaf {} }": "2:1: duplicate ADT declaration 'L'",
    "adt P { Pair { int v; int v; } }": "1:9: duplicate field label in variant 'Pair'",
    "harness void h(fun[] g) { }": "1:1: harness 'h' parameter 'g' must have a concrete type",
    "int f(fun[] g) { return 1; }": "1:1: fun[] is not a valid parameter type",
}

# toy -> the error of printing it strictly, with its line:col, or None
# when it prints, and the print parses back to the same program
STRICT_PRINTS = {
    "statements-after-if-and-switch": None,
    "statements-after-blocks": "3:5: Let outside statement position is not printable",
    "empty-statements": "2:4: unit value outside statement position",
    "choice": "1:23: cannot print a choice in a concrete program",
}

# toy -> its debug print
DEBUG_PRINTS = {
    "statements-after-blocks": """adt L {
  Nil {}
  Cons { int h; L t; }
}

int f(L l, int x) {
  { int y = x; if (y == 0) { assert(x == 0) } else { () } };
  { int z = x; switch (l) { case Nil: assert(z == x); case Cons: assert(z == x); } };
  { int w = x; switch (l) { case?: assert(w == x); } };
  return 0 - x;
}
""",
    "empty-statements": """harness void h(int x) {
  ();
  x == 0;
  if (x == 0) {
  }
  assert(x != 1 || x == 1);
}
""",
}


def _load(source: str):
    if source in TOYS:
        return load_with_library(TOYS[source])
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
    with pytest.raises(SynrecError) as err:
        parse_program(source)
    assert str(err.value) == MALFORMED[source]


@pytest.mark.parametrize("toy", sorted(STRICT_PRINTS))
def test_strict_print_is_pinned(toy):
    program = parse_program(TOYS[toy])
    if STRICT_PRINTS[toy] is None:
        printed = pretty_print_program(program)
        assert parse_program(printed) == program
        assert pretty_print_program(parse_program(printed)) == printed
    else:
        with pytest.raises(PrintError) as err:
            pretty_print_program(program)
        assert str(err.value) == STRICT_PRINTS[toy]


@pytest.mark.parametrize("toy", sorted(DEBUG_PRINTS))
def test_debug_print_is_pinned(toy):
    assert pretty_print_program(parse_program(TOYS[toy]), debug=True) == DEBUG_PRINTS[toy]
