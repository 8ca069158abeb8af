"""Parser and resolver for `.synrec` sources.

The concrete syntax follows the C-like shape of the synthesis listings:
`adt Name { Variant { type field; ... } ... }`, `generator` functions with
angle-bracket type parameters, statement blocks with declarations and
`return`, and the synthesis tokens `??`, `choose`, `case?`, `fields?`,
`cons?`.  Statement blocks are desugared into the expression kernel
(`let ... in`, switch-as-expression) during parsing, so every later pass
works on plain expressions only.

The tokenizer makes each token a plain `(kind, value, offset)` tuple and
computes no line or column.  The parser reads the token list by index and
makes a `Span` from an offset, through a table of line starts, only for a
node or an error that takes one: the line:col of the token that
introduces the node (its keyword, operator, name or literal).

Parsing does not resolve names.  `pipeline.load_with_library` parses each
source, merges them (`merge_programs`: earlier sources shadow later ones)
and then runs `resolve` once on the whole, so user code can name library
templates and every name is checked against all sources.  `parse_program`
parses and resolves a self-contained source.
"""

from __future__ import annotations

import functools
import logging
import re
from bisect import bisect_right
from itertools import accumulate

from .ast import (
    BIT,
    FUN,
    GENERATOR,
    INT,
    POLYGEN,
    STANDARD,
    UNIT,
    AdtDecl,
    AdtType,
    AlwaysFail,
    Annotation,
    ArrayLit,
    ArrayType,
    Assert,
    BinOp,
    Call,
    Choice,
    Ctor,
    Expr,
    FieldAccess,
    FieldsOf,
    FlexSwitch,
    FuncDecl,
    FuncRef,
    FunType,
    Hole,
    If,
    Index,
    IntLit,
    Let,
    Span,
    SurfaceProgram,
    Switch,
    SwitchArm,
    TypeExpr,
    TypeVarRef,
    UnitLit,
    UnknownCtor,
    UnOp,
    Var,
    VariantDecl,
    children,
    rebuild,
    replace,
)
from .errors import ParseError, ResolveError

log = logging.getLogger("synrec")

# binary operator -> precedence, loosest first (the printer's too)
BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6,
}

KEYWORDS = {
    "adt",
    "generator",
    "harness",
    "new",
    "switch",
    "case",
    "return",
    "if",
    "else",
    "assert",
    "choose",
    "int",
    "bit",
    "fun",
    "void",
    "unreachable",
}

# the types named by a keyword
_BASE_TYPES = {"int": INT, "bit": BIT, "fun": FUN}

# `map` is a built-in higher-order function handled by the expander.
BUILTIN_FUNCS = ("map",)

# One token and the whitespace and comments before it, as the groups
# (skipped, int, ident, op, bad).  Any character that starts no token is
# `bad`, so the pattern matches at every position and never backtracks into
# the skipped part; at the end of the input only `skipped` can be non-empty.
_TOKEN_RE = re.compile(
    r"""
    (\s*(?://[^\n]*\s*)*)
    (?:
      (\d+)
    | ([A-Za-z_][A-Za-z0-9_]*\??)
    | (\?\?|==|!=|<=|>=|&&|\|\||[-+*<>=!{}()\[\],;:.@])
    | (.)
    | \Z
    )""",
    re.VERBOSE | re.DOTALL,
)
# the parser looks at most one token past the current one
_LOOKAHEAD = 1

# A token is a plain tuple (kind, value, offset): the kind is "ident",
# "int", "op" or "eof", and the offset is where the value starts in the
# source.  A token has no line:col; the parser makes a `Span` from the
# offset only for a node or an error that takes one.
Token = tuple[str, str, int]

# Build a Span from a tuple without the Python-level `__new__` of a NamedTuple.
_span = functools.partial(tuple.__new__, Span)


def _line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of `text`."""
    return list(accumulate([len(line) + 1 for line in text.split("\n")], initial=0))


def _span_at(starts: list[int], pos: int) -> Span:
    """The line:col of offset `pos`, given the line starts of its source."""
    line = bisect_right(starts, pos)
    return _span((line, pos - starts[line - 1] + 1))


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then `_LOOKAHEAD + 1` copies of `eof`."""
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    for skipped, num, ident, op, bad in _TOKEN_RE.findall(text):
        pos += len(skipped)
        if op:
            append(("op", op, pos))
            pos += len(op)
        elif ident:
            if ident[-1] == "?" and ident[:-1] not in ("case", "fields", "cons"):
                raise ParseError(
                    f"stray '?' after {ident[:-1]!r}", _span_at(_line_starts(text), pos)
                )
            append(("ident", ident, pos))
            pos += len(ident)
        elif num:
            append(("int", num, pos))
            pos += len(num)
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", _span_at(_line_starts(text), pos))
    tokens.extend([("eof", "", pos)] * (_LOOKAHEAD + 1))
    return tokens


class _Parser:
    """A recursive-descent parser that reads `toks[i]` in place; the hot
    paths (statements and expressions) index the token list themselves
    instead of going through the helpers below."""

    def __init__(self, text: str, source: str | None = None):
        self.toks = tokenize(text)
        self.span = functools.partial(_span_at, _line_starts(text))
        self.source = source
        self.i = 0
        self.assert_counter = 0

    # -- token helpers -----------------------------------------------------

    def at(self, value: str) -> bool:
        # only an op or an identifier can have the value of an op or a keyword
        return self.toks[self.i][1] == value

    def expect(self, value: str) -> int:
        """Consume the token `value`; return its offset."""
        _, found, pos = self.toks[self.i]
        if found != value:
            raise ParseError(
                f"expected {value!r}, found {found or 'end of input'!r}", self.span(pos)
            )
        self.i += 1
        return pos

    def expect_ident(self, what: str = "identifier") -> str:
        kind, value, pos = self.toks[self.i]
        if kind != "ident" or value in KEYWORDS or value[-1] == "?":
            raise ParseError(
                f"expected {what}, found {value or 'end of input'!r}", self.span(pos)
            )
        self.i += 1
        return value

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> SurfaceProgram:
        adts: list[AdtDecl] = []
        funcs: list[FuncDecl] = []
        while self.toks[self.i][0] != "eof":
            if self.at("adt"):
                adts.append(self.parse_adt())
            else:
                funcs.append(self.parse_func())
        return SurfaceProgram(tuple(adts), tuple(funcs))

    def parse_adt(self) -> AdtDecl:
        pos = self.expect("adt")
        name = self.expect_ident("ADT name")
        self.expect("{")
        variants: list[VariantDecl] = []
        while not self.at("}"):
            variants.append(self.parse_variant())
        self.expect("}")
        if not variants:
            raise ParseError(f"ADT {name!r} declares no variants", self.span(pos))
        return AdtDecl(name, tuple(variants), span=self.span(pos), source=self.source)

    def parse_variant(self) -> VariantDecl:
        pos = self.toks[self.i][2]
        name = self.expect_ident("variant name")
        self.expect("{")
        fields: list[tuple[str, TypeExpr]] = []
        while not self.at("}"):
            ty = self.parse_type()
            label = self.expect_ident("field name")
            self.expect(";")
            fields.append((label, ty))
        self.expect("}")
        return VariantDecl(name, tuple(fields), span=self.span(pos))

    def parse_annotation(self) -> Annotation:
        pos = self.expect("@")
        name = self.expect_ident("annotation name")
        args: list[str] = []
        self.expect("(")
        if not self.at(")"):
            args.append(self.expect_ident())
            while self.at(","):
                self.i += 1
                args.append(self.expect_ident())
        self.expect(")")
        return Annotation(name, tuple(args), span=self.span(pos))

    def parse_func(self) -> FuncDecl:
        annotations: list[Annotation] = []
        while self.at("@"):
            annotations.append(self.parse_annotation())
        pos = self.toks[self.i][2]
        is_harness = False
        kind = STANDARD
        if self.at("harness"):
            self.i += 1
            is_harness = True
        if self.at("generator"):
            self.i += 1
            kind = GENERATOR
        if self.at("void"):
            self.i += 1
            ret: TypeExpr = UNIT
        else:
            ret = self.parse_type()
        name = self.expect_ident("function name")
        type_params: list[str] = []
        if self.at("<"):
            self.i += 1
            type_params.append(self.expect_ident("type variable"))
            while self.at(","):
                self.i += 1
                type_params.append(self.expect_ident("type variable"))
            self.expect(">")
            if kind != GENERATOR:
                raise ParseError("type parameters are only allowed on generators", self.span(pos))
            kind = POLYGEN
        params: list[tuple[str, TypeExpr]] = []
        self.expect("(")
        if not self.at(")"):
            while True:
                pty = self.parse_type()
                params.append((self.expect_ident("parameter name"), pty))
                if not self.at(","):
                    break
                self.i += 1
        self.expect(")")
        body = self.parse_block()
        return FuncDecl(
            kind,
            name,
            tuple(type_params),
            tuple(params),
            ret,
            body,
            is_harness=is_harness,
            annotations=tuple(annotations),
            span=self.span(pos),
            source=self.source,
        )

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        toks = self.toks
        kind, value, pos = toks[self.i]
        ty = _BASE_TYPES.get(value)
        if ty is None:
            if kind != "ident" or value in KEYWORDS:
                raise ParseError(f"expected a type, found {value!r}", self.span(pos))
            ty = AdtType(value)  # may be re-classified as a type variable later
        self.i += 1
        while toks[self.i][1] == "[" and toks[self.i + 1][1] == "]":
            self.i += 2
            ty = ArrayType(ty)
        return ty

    def looks_like_decl(self) -> bool:
        """Lookahead: `type name =` starts a local declaration."""
        toks = self.toks
        kind, value, _ = toks[self.i]
        if kind != "ident":
            return False
        if value in _BASE_TYPES:
            return True
        if value in KEYWORDS:
            return False
        j = self.i + 1
        while toks[j][1] == "[" and toks[j + 1][1] == "]":
            j += 2
        kind, value, _ = toks[j]
        return kind == "ident" and value not in KEYWORDS and toks[j + 1][1] == "="

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> Expr:
        self.expect("{")
        body = self.parse_stmts_until("}")
        self.expect("}")
        return body

    def parse_stmts_until(self, *closers: str) -> Expr:
        toks = self.toks
        stmts: list[tuple[str, object, int]] = []
        while True:
            kind, value, pos = toks[self.i]
            if value in closers or kind == "eof":
                return self._desugar_stmts(stmts, pos)
            stmts.append(self.parse_stmt())

    def parse_stmt(self) -> tuple[str, object, int]:
        """One statement as (kind, payload, offset): a `return` with its
        value, a `decl` with its name, type and value, or any other
        statement (`stmt`) with its node."""
        toks = self.toks
        _, value, pos = toks[self.i]
        if value == "{":
            return ("stmt", self.parse_block(), pos)
        if value == "return":
            self.i += 1
            if toks[self.i][1] == ";":
                self.i += 1
                return ("return", UnitLit(span=self.span(pos)), pos)
            e = self.parse_expr()
            self.expect(";")
            return ("return", e, pos)
        if value == "if":
            self.i += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block_or_stmt()
            span = self.span(pos)
            if toks[self.i][1] == "else":
                self.i += 1
                els = self.parse_block_or_stmt()
            else:
                els = UnitLit(span=span)
            return ("stmt", If(cond, then, els, span=span), pos)
        if value == "switch":
            return ("stmt", self.parse_switch(), pos)
        if self.looks_like_decl():
            ty = self.parse_type()
            name = self.expect_ident("variable name")
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            return ("decl", (name, ty, init), pos)
        e = self.parse_expr()
        self.expect(";")
        return ("stmt", e, pos)

    def parse_switch(self) -> Expr:
        span = self.span(self.expect("switch"))
        self.expect("(")
        scrut = self.expect_ident("switch scrutinee (a variable)")
        self.expect(")")
        self.expect("{")
        if self.at("case?"):
            self.i += 1
            self.expect(":")
            body = self.parse_stmts_until("}", "case", "case?")
            self.expect("}")
            return FlexSwitch(scrut, body, span=span)
        arms: list[SwitchArm] = []
        while self.at("case"):
            self.i += 1
            vname = self.expect_ident("variant name")
            self.expect(":")
            arms.append(SwitchArm(vname, self.parse_stmts_until("}", "case", "case?")))
        self.expect("}")
        if not arms:
            raise ParseError("switch with no cases", span)
        return Switch(scrut, tuple(arms), span=span)

    def parse_block_or_stmt(self) -> Expr:
        if self.at("{"):
            return self.parse_block()
        stmt = self.parse_stmt()
        return self._desugar_stmts([stmt], stmt[2])

    def _desugar_stmts(self, stmts: list, end: int) -> Expr:
        """Turn a statement list into a kernel expression; `end` is the
        offset of the token that closes the list.

        A `return` ends the block; trailing statements without a return
        leave the block unit-valued (the harness case).  Unit-valued
        statements are sequenced through `_`-named lets.
        """
        if not stmts:
            return UnitLit(span=self.span(end))
        kind, payload, pos = stmts[0]
        rest = stmts[1:]
        if kind == "return":
            if rest:
                raise ParseError("unreachable code after return", self.span(rest[0][2]))
            return payload
        if kind == "decl":
            name, ty, value = payload
            return Let(name, ty, value, self._desugar_stmts(rest, end), span=self.span(pos))
        if not rest:
            return payload
        return Let("_", UNIT, payload, self._desugar_stmts(rest, end), span=self.span(pos))

    # -- expressions -------------------------------------------------------------

    def parse_expr(self, level: int = 1) -> Expr:
        """A chain of binary operators of precedence `level` or tighter;
        each precedence level associates to the left."""
        toks = self.toks
        if toks[self.i][1] in ("!", "-"):
            e = self.parse_unary()
        else:
            e = self.parse_postfix()
        while True:
            _, value, pos = toks[self.i]
            prec = BINARY_PREC.get(value, 0)
            if prec < level:
                return e
            self.i += 1
            e = BinOp(value, e, self.parse_expr(prec + 1), span=self.span(pos))

    def parse_unary(self) -> Expr:
        _, value, pos = self.toks[self.i]
        if value == "!":
            self.i += 1
            return UnOp("!", self.parse_unary(), span=self.span(pos))
        if value == "-":
            self.i += 1
            operand = self.parse_unary()
            span = self.span(pos)
            if isinstance(operand, IntLit):
                return IntLit(-operand.value, span=span)
            return BinOp("-", IntLit(0, span=span), operand, span=span)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        toks = self.toks
        while True:
            _, value, pos = toks[self.i]
            if value == ".":
                _, label, pos = toks[self.i + 1]
                if label == "fields?":
                    self.i += 2
                    e = FieldsOf(e, span=self.span(pos))
                else:
                    self.i += 1
                    e = FieldAccess(e, self.expect_ident("field name"), span=self.span(pos))
            elif value == "[":
                self.i += 1
                idx = self.parse_expr()
                self.expect("]")
                e = Index(e, idx, span=self.span(pos))
            else:
                return e

    def parse_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        toks = self.toks
        args: list[Expr] = []
        if toks[self.i][1] != ")":
            args.append(self.parse_expr())
            while toks[self.i][1] == ",":
                self.i += 1
                args.append(self.parse_expr())
        self.expect(")")
        return tuple(args)

    def parse_atom(self) -> Expr:
        toks = self.toks
        kind, value, pos = toks[self.i]
        if kind == "ident" and value not in KEYWORDS and value[-1] != "?":
            self.i += 1
            if toks[self.i][1] == "(":
                return Call(value, self.parse_args(), span=self.span(pos))
            return Var(value, span=self.span(pos))
        if kind == "int":
            self.i += 1
            return IntLit(int(value), span=self.span(pos))
        if value == "??":
            self.i += 1
            return Hole(span=self.span(pos))
        if value == "choose":
            self.i += 1
            args = self.parse_args()
            if not args:
                raise ParseError("choose needs at least one alternative", self.span(pos))
            return Choice(args, span=self.span(pos))
        if value == "assert":
            self.i += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            aid = self.assert_counter
            self.assert_counter += 1
            return Assert(cond, aid=aid, span=self.span(pos))
        if value == "unreachable":
            self.i += 1
            self.expect("<")
            ty = self.parse_type()
            self.expect(">")
            return AlwaysFail(ty, span=self.span(pos))
        if value == "new":
            self.i += 1
            if self.at("cons?"):
                self.i += 1
                return UnknownCtor(self.parse_args(), span=self.span(pos))
            vname = self.expect_ident("variant name")
            self.expect("(")
            fields: list[tuple[str, Expr]] = []
            if not self.at(")"):
                while True:
                    label = self.expect_ident("field label")
                    self.expect("=")
                    fields.append((label, self.parse_expr()))
                    if not self.at(","):
                        break
                    self.i += 1
            self.expect(")")
            return Ctor(vname, tuple(fields), span=self.span(pos))
        if value == "(":
            self.i += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if value == "{":
            self.i += 1
            items: list[Expr] = []
            if not self.at("}"):
                items.append(self.parse_expr())
                while self.at(","):
                    self.i += 1
                    items.append(self.parse_expr())
            self.expect("}")
            return ArrayLit(tuple(items), span=self.span(pos))
        raise ParseError(f"unexpected token {value or 'end of input'!r}", self.span(pos))


# ---------------------------------------------------------------------------
# Resolution


def _resolve_type(
    ty: TypeExpr, adts: set[str], type_params: tuple[str, ...], span: Span
) -> TypeExpr:
    if isinstance(ty, ArrayType):
        return ArrayType(_resolve_type(ty.elem, adts, type_params, span))
    if isinstance(ty, AdtType):
        if ty.name in type_params:
            return TypeVarRef(ty.name)
        if ty.name not in adts:
            raise ResolveError(f"unknown type {ty.name!r}", span)
    return ty


class _Resolver:
    """Checks that a program declares each name once and that its variants'
    fields have declared types, then resolves function bodies against the
    names it declares."""

    def __init__(self, program: SurfaceProgram):
        self.adts = {a.name for a in program.adts}
        self.variants: dict[str, VariantDecl] = {}
        seen_adts: set[str] = set()
        for adt in program.adts:
            if adt.name in seen_adts:
                raise ResolveError(f"duplicate ADT declaration {adt.name!r}", adt.span, adt.source)
            seen_adts.add(adt.name)
            for v in adt.variants:
                if v.name in self.variants:
                    raise ResolveError(f"duplicate variant name {v.name!r}", v.span, adt.source)
                self.variants[v.name] = v
                labels = [l for l, _ in v.fields]
                if len(labels) != len(set(labels)):
                    raise ResolveError(
                        f"duplicate field label in variant {v.name!r}", v.span, adt.source
                    )
                for _, t in v.fields:
                    try:
                        _resolve_type(t, self.adts, (), v.span)
                    except ResolveError as err:
                        raise err.located(adt.source)
        self.functions: set[str] = set()
        for f in program.functions:
            if f.name in self.functions:
                raise ResolveError(f"duplicate function declaration {f.name!r}", f.span, f.source)
            self.functions.add(f.name)

    def expr(self, e: Expr, scope: set[str], func: FuncDecl) -> Expr:
        """Resolve the type names in an expression and disambiguate its
        identifiers into variables vs. function references."""
        kind = type(e)
        if kind is Var:
            if e.name in scope:
                return e
            if e.name in self.functions:
                return FuncRef(e.name, span=e.span)
            raise ResolveError(f"unbound identifier {e.name!r} in {func.name!r}", e.span)
        if kind is Call:
            if (
                e.callee not in scope
                and e.callee not in BUILTIN_FUNCS
                and e.callee not in self.functions
            ):
                raise ResolveError(
                    f"call to unknown function {e.callee!r} in {func.name!r}", e.span
                )
            return Call(e.callee, tuple([self.expr(a, scope, func) for a in e.args]), span=e.span)
        if kind is Let:
            ty = _resolve_type(e.ty, self.adts, func.type_params, e.span)
            value = self.expr(e.value, scope, func)
            body = self.expr(e.body, scope | {e.name}, func)
            return Let(e.name, ty, value, body, span=e.span)
        if kind is AlwaysFail:
            return AlwaysFail(_resolve_type(e.ty, self.adts, func.type_params, e.span), span=e.span)
        if kind is Switch or kind is FlexSwitch:
            if e.scrutinee not in scope:
                raise ResolveError(
                    f"switch scrutinee {e.scrutinee!r} is not a variable in scope", e.span
                )
            if kind is Switch:
                for arm in e.arms:
                    if arm.variant not in self.variants:
                        raise ResolveError(f"unknown variant {arm.variant!r}", e.span)
        elif kind is Ctor:
            decl = self.variants.get(e.variant)
            if decl is None:
                raise ResolveError(f"unknown variant {e.variant!r}", e.span)
            declared = [l for l, _ in decl.fields]
            given = [l for l, _ in e.fields]
            if sorted(given) != sorted(set(given)):
                raise ResolveError(f"duplicate field in constructor {e.variant!r}", e.span)
            if set(given) != set(declared):
                raise ResolveError(
                    f"constructor {e.variant!r} needs fields {declared}, got {given}", e.span
                )
            # normalize to declaration order
            by_label = dict(e.fields)
            fields = tuple((l, self.expr(by_label[l], scope, func)) for l in declared)
            return Ctor(e.variant, fields, span=e.span)
        kids = children(e)
        return rebuild(e, [self.expr(c, scope, func) for c in kids]) if kids else e

    def func(self, f: FuncDecl) -> FuncDecl:
        params = tuple(
            (n, _resolve_type(t, self.adts, f.type_params, f.span)) for n, t in f.params
        )
        for n, t in params:
            if f.is_harness and not _concrete_surface(t):
                raise ResolveError(
                    f"harness {f.name!r} parameter {n!r} must have a concrete type", f.span
                )
            if isinstance(t, ArrayType) and isinstance(t.elem, FunType):
                raise ResolveError("fun[] is not a valid parameter type", f.span)
        return replace(
            f,
            params=params,
            ret=_resolve_type(f.ret, self.adts, f.type_params, f.span),
            body=self.expr(f.body, {n for n, _ in params}, f),
        )


def _concrete_surface(ty: TypeExpr) -> bool:
    if isinstance(ty, ArrayType):
        return _concrete_surface(ty.elem)
    return not isinstance(ty, (TypeVarRef, FunType))


def resolve(program: SurfaceProgram) -> SurfaceProgram:
    """Resolve a whole program, library included, in one walk per function.

    Every type name must be a declared ADT or one of the function's type
    variables, every identifier a variable in scope or a function, every
    call target a function, a `fun` in scope or a built-in.
    """
    resolver = _Resolver(program)
    funcs = []
    for f in program.functions:
        try:
            funcs.append(resolver.func(f))
        except ResolveError as err:
            raise err.located(f.source)
    return SurfaceProgram(program.adts, tuple(funcs))


# ---------------------------------------------------------------------------
# Entry points


def parse(text: str, source: str | None = None) -> SurfaceProgram:
    """Parse a source without resolving it; raises ParseError with spans,
    naming `source` (a path or `<prelude>`) when it is given."""
    try:
        return _Parser(text, source).parse_program()
    except ParseError as err:
        raise err.located(source)


def parse_program(text: str) -> SurfaceProgram:
    """Parse and resolve a self-contained program (no library)."""
    return resolve(parse(text))


def merge_programs(
    user: SurfaceProgram, lib: SurfaceProgram, lib_name: str = "library", warn: bool = True
) -> SurfaceProgram:
    """Merge `lib` under `user`; user declarations shadow the `lib_name`
    ones, each with a warning when `warn` is set.

    Both are unresolved; the caller resolves the result once.  Identical
    re-declarations of an ADT merge silently; an ADT redeclared with
    different variants is a hard error that names `lib_name`.
    """
    user_adts = {a.name: a for a in user.adts}
    adts = list(user.adts)
    for a in lib.adts:
        mine = user_adts.get(a.name)
        if mine is None:
            adts.append(a)
        elif mine.variants != a.variants:
            raise ResolveError(
                f"ADT {a.name!r} conflicts with its declaration in the {lib_name}",
                mine.span,
                mine.source,
            )
    user_func_names = {f.name for f in user.functions}
    funcs = list(user.functions)
    for f in lib.functions:
        if f.name not in user_func_names:
            funcs.append(f)
        elif warn:
            log.warning("user definition of %r shadows the %s version", f.name, lib_name)
    return SurfaceProgram(tuple(adts), tuple(funcs))
