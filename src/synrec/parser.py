"""Parser and resolver for `.synrec` sources.

The concrete syntax follows the C-like shape of the synthesis listings:
`adt Name { Variant { type field; ... } ... }`, `generator` functions with
angle-bracket type parameters, statement blocks with declarations and
`return`, and the synthesis tokens `??`, `choose`, `case?`, `fields?`,
`cons?`.  Statement blocks are desugared into the expression kernel
(`let ... in`, switch-as-expression) during parsing, so every later pass
works on plain expressions only.

Parsing does not resolve names.  `pipeline.load_with_library` parses each
source, merges them (`merge_programs`: earlier sources shadow later ones)
and then runs `resolve` once on the whole, so user code can name library
templates and every name is checked against all sources.  `parse_program`
parses and resolves a self-contained source.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import re
from typing import NamedTuple

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
)
from .errors import ParseError, ResolveError

log = logging.getLogger("synrec")

# binary operator -> precedence, loosest first
_BINARY = {
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


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "op" | "eof"
    value: str
    span: Span


# Build from a tuple without the Python-level `__new__` of a NamedTuple:
# the tokenizer makes one of each per token.
_token = functools.partial(tuple.__new__, Token)
_span = functools.partial(tuple.__new__, Span)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then `_LOOKAHEAD + 1` copies of `eof`."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    for skipped, num, ident, op, bad in _TOKEN_RE.findall(text):
        if skipped:
            nl = skipped.count("\n")
            if nl:
                line += nl
                line_start = pos + skipped.rfind("\n") + 1
            pos += len(skipped)
        span = _span((line, pos - line_start + 1))
        if ident:
            if ident[-1] == "?" and ident[:-1] not in ("case", "fields", "cons"):
                raise ParseError(f"stray '?' after {ident[:-1]!r}", span)
            kind, value = "ident", ident
        elif op:
            kind, value = "op", op
        elif num:
            kind, value = "int", num
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", span)
        else:
            break
        tokens.append(_token((kind, value, span)))
        pos += len(value)
    tokens.extend([_token(("eof", "", span))] * (_LOOKAHEAD + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str | None = None):
        self.toks = tokens
        self.source = source
        self.i = 0
        self.assert_counter = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, off: int = 0) -> Token:
        return self.toks[self.i + off]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, value: str, off: int = 0) -> bool:
        # only an op or an identifier can have the value of an op or a keyword
        return self.toks[self.i + off].value == value

    def expect(self, value: str) -> Token:
        t = self.toks[self.i]
        if t.value != value:
            raise ParseError(f"expected {value!r}, found {t.value or 'end of input'!r}", t.span)
        self.i += 1
        return t

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.toks[self.i]
        if t.kind != "ident" or t.value in KEYWORDS or t.value.endswith("?"):
            raise ParseError(f"expected {what}, found {t.value or 'end of input'!r}", t.span)
        self.i += 1
        return t

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> SurfaceProgram:
        adts: list[AdtDecl] = []
        funcs: list[FuncDecl] = []
        while self.peek().kind != "eof":
            if self.at("adt"):
                adts.append(self.parse_adt())
            else:
                funcs.append(self.parse_func())
        return SurfaceProgram(tuple(adts), tuple(funcs))

    def parse_adt(self) -> AdtDecl:
        span = self.expect("adt").span
        name = self.expect_ident("ADT name").value
        self.expect("{")
        variants: list[VariantDecl] = []
        while not self.at("}"):
            variants.append(self.parse_variant())
        self.expect("}")
        if not variants:
            raise ParseError(f"ADT {name!r} declares no variants", span)
        return AdtDecl(name, tuple(variants), span=span, source=self.source)

    def parse_variant(self) -> VariantDecl:
        name_tok = self.expect_ident("variant name")
        self.expect("{")
        fields: list[tuple[str, TypeExpr]] = []
        while not self.at("}"):
            ty = self.parse_type()
            label = self.expect_ident("field name").value
            self.expect(";")
            fields.append((label, ty))
        self.expect("}")
        return VariantDecl(name_tok.value, tuple(fields), span=name_tok.span)

    def parse_annotation(self) -> Annotation:
        span = self.expect("@").span
        name = self.expect_ident("annotation name").value
        args: list[str] = []
        self.expect("(")
        if not self.at(")"):
            args.append(self.expect_ident().value)
            while self.at(","):
                self.next()
                args.append(self.expect_ident().value)
        self.expect(")")
        return Annotation(name, tuple(args), span=span)

    def parse_func(self) -> FuncDecl:
        annotations: list[Annotation] = []
        while self.at("@"):
            annotations.append(self.parse_annotation())
        span = self.peek().span
        is_harness = False
        kind = STANDARD
        if self.at("harness"):
            self.next()
            is_harness = True
        if self.at("generator"):
            self.next()
            kind = GENERATOR
        if self.at("void"):
            self.next()
            ret: TypeExpr = UNIT
        else:
            ret = self.parse_type()
        name = self.expect_ident("function name").value
        type_params: list[str] = []
        if self.at("<"):
            self.next()
            type_params.append(self.expect_ident("type variable").value)
            while self.at(","):
                self.next()
                type_params.append(self.expect_ident("type variable").value)
            self.expect(">")
            if kind != GENERATOR:
                raise ParseError("type parameters are only allowed on generators", span)
            kind = POLYGEN
        params: list[tuple[str, TypeExpr]] = []
        self.expect("(")
        if not self.at(")"):
            while True:
                pty = self.parse_type()
                pname = self.expect_ident("parameter name").value
                params.append((pname, pty))
                if self.at(","):
                    self.next()
                    continue
                break
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
            span=span,
            source=self.source,
        )

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        t = self.peek()
        if t.value == "int":
            self.next()
            ty: TypeExpr = INT
        elif t.value == "bit":
            self.next()
            ty = BIT
        elif t.value == "fun":
            self.next()
            ty = FUN
        elif t.kind == "ident" and t.value not in KEYWORDS:
            self.next()
            ty = AdtType(t.value)  # may be re-classified as a type variable later
        else:
            raise ParseError(f"expected a type, found {t.value!r}", t.span)
        while self.at("[") and self.at("]", 1):
            self.next()
            self.next()
            ty = ArrayType(ty)
        return ty

    def looks_like_decl(self) -> bool:
        """Lookahead: `type name =` starts a local declaration."""
        t = self.peek()
        if t.kind != "ident":
            return False
        if t.value in ("int", "bit", "fun"):
            return True
        if t.value in KEYWORDS:
            return False
        j = 1
        while self.peek(j).value == "[" and self.peek(j + 1).value == "]":
            j += 2
        nxt = self.peek(j)
        return nxt.kind == "ident" and nxt.value not in KEYWORDS and self.peek(j + 1).value == "="

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> Expr:
        self.expect("{")
        stmts = self.parse_stmts_until("}")
        self.expect("}")
        return stmts

    def parse_stmts_until(self, *closers: str) -> Expr:
        stmts: list[tuple[str, object, Span]] = []
        while self.peek().value not in closers and self.peek().kind != "eof":
            stmts.append(self.parse_stmt())
        return self._desugar_stmts(stmts, self.peek().span)

    def parse_stmt(self) -> tuple[str, object, Span]:
        t = self.peek()
        if t.value == "{":
            return ("block", self.parse_block(), t.span)
        if t.value == "return":
            self.next()
            if self.at(";"):
                self.next()
                return ("return", UnitLit(span=t.span), t.span)
            e = self.parse_expr()
            self.expect(";")
            return ("return", e, t.span)
        if t.value == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block_or_stmt()
            els = None
            if self.at("else"):
                self.next()
                els = self.parse_block_or_stmt()
            return ("if", (cond, then, els), t.span)
        if t.value == "switch":
            self.next()
            self.expect("(")
            scrut = self.expect_ident("switch scrutinee (a variable)").value
            self.expect(")")
            self.expect("{")
            if self.at("case?"):
                self.next()
                self.expect(":")
                body = self.parse_stmts_until("}", "case", "case?")
                self.expect("}")
                return ("switch", FlexSwitch(scrut, body, span=t.span), t.span)
            arms: list[SwitchArm] = []
            while self.at("case"):
                self.next()
                vname = self.expect_ident("variant name").value
                self.expect(":")
                body = self.parse_stmts_until("}", "case", "case?")
                arms.append(SwitchArm(vname, body))
            self.expect("}")
            if not arms:
                raise ParseError("switch with no cases", t.span)
            return ("switch", Switch(scrut, tuple(arms), span=t.span), t.span)
        if self.looks_like_decl():
            ty = self.parse_type()
            name = self.expect_ident("variable name").value
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return ("decl", (name, ty, value), t.span)
        e = self.parse_expr()
        self.expect(";")
        return ("expr", e, t.span)

    def parse_block_or_stmt(self) -> Expr:
        if self.at("{"):
            return self.parse_block()
        stmt = self.parse_stmt()
        return self._desugar_stmts([stmt], stmt[2])

    def _desugar_stmts(self, stmts: list, end_span: Span) -> Expr:
        """Turn a statement list into a kernel expression.

        A `return` ends the block; trailing statements without a return
        leave the block unit-valued (the harness case).  Unit-valued
        statements are sequenced through `_`-named lets.
        """
        if not stmts:
            return UnitLit(span=end_span)
        kind, payload, span = stmts[0]
        rest = stmts[1:]
        if kind == "return":
            if rest:
                raise ParseError("unreachable code after return", rest[0][2])
            return payload
        if kind == "decl":
            name, ty, value = payload
            return Let(name, ty, value, self._desugar_stmts(rest, end_span), span=span)
        if kind == "if":
            cond, then, els = payload
            if els is None:
                els = UnitLit(span=span)
            node = If(cond, then, els, span=span)
            if not rest:
                return node
            return Let("_", UNIT, node, self._desugar_stmts(rest, end_span), span=span)
        if kind in ("switch", "block"):
            if not rest:
                return payload
            return Let("_", UNIT, payload, self._desugar_stmts(rest, end_span), span=span)
        # expression statement
        if not rest:
            return payload
        return Let("_", UNIT, payload, self._desugar_stmts(rest, end_span), span=span)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self, level: int = 1) -> Expr:
        """A chain of binary operators of precedence `level` or tighter;
        each precedence level associates to the left."""
        e = self.parse_unary()
        while True:
            t = self.toks[self.i]
            prec = _BINARY.get(t.value, 0)
            if prec < level:
                return e
            self.i += 1
            e = BinOp(t.value, e, self.parse_expr(prec + 1), span=t.span)

    def parse_unary(self) -> Expr:
        if self.at("!"):
            span = self.next().span
            return UnOp("!", self.parse_unary(), span=span)
        if self.at("-"):
            span = self.next().span
            operand = self.parse_unary()
            if isinstance(operand, IntLit):
                return IntLit(-operand.value, span=span)
            return BinOp("-", IntLit(0, span=span), operand, span=span)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while True:
            op = self.peek().value
            if op == ".":
                self.next()
                t = self.peek()
                if t.value == "fields?":
                    self.next()
                    e = FieldsOf(e, span=t.span)
                else:
                    label = self.expect_ident("field name").value
                    e = FieldAccess(e, label, span=t.span)
            elif op == "[":
                span = self.next().span
                idx = self.parse_expr()
                self.expect("]")
                e = Index(e, idx, span=span)
            else:
                return e

    def parse_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        args: list[Expr] = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return tuple(args)

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.value), span=t.span)
        if t.value == "??":
            self.next()
            return Hole(span=t.span)
        if t.value == "choose":
            self.next()
            args = self.parse_args()
            if not args:
                raise ParseError("choose needs at least one alternative", t.span)
            return Choice(args, span=t.span)
        if t.value == "assert":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            aid = self.assert_counter
            self.assert_counter += 1
            return Assert(cond, aid=aid, span=t.span)
        if t.value == "unreachable":
            self.next()
            self.expect("<")
            ty = self.parse_type()
            self.expect(">")
            return AlwaysFail(ty, span=t.span)
        if t.value == "new":
            self.next()
            if self.at("cons?"):
                self.next()
                args = self.parse_args()
                return UnknownCtor(args, span=t.span)
            vname = self.expect_ident("variant name").value
            self.expect("(")
            fields: list[tuple[str, Expr]] = []
            if not self.at(")"):
                while True:
                    label = self.expect_ident("field label").value
                    self.expect("=")
                    fields.append((label, self.parse_expr()))
                    if self.at(","):
                        self.next()
                        continue
                    break
            self.expect(")")
            return Ctor(vname, tuple(fields), span=t.span)
        if t.value == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.value == "{":
            self.next()
            items: list[Expr] = []
            if not self.at("}"):
                items.append(self.parse_expr())
                while self.at(","):
                    self.next()
                    items.append(self.parse_expr())
            self.expect("}")
            return ArrayLit(tuple(items), span=t.span)
        if t.kind == "ident" and t.value not in KEYWORDS and not t.value.endswith("?"):
            self.next()
            if self.at("("):
                args = self.parse_args()
                return Call(t.value, args, span=t.span)
            return Var(t.value, span=t.span)
        raise ParseError(f"unexpected token {t.value or 'end of input'!r}", t.span)


# ---------------------------------------------------------------------------
# Resolution


def _resolve_type(
    ty: TypeExpr, program: SurfaceProgram, type_params: tuple[str, ...], span: Span
) -> TypeExpr:
    if isinstance(ty, ArrayType):
        return ArrayType(_resolve_type(ty.elem, program, type_params, span))
    if isinstance(ty, AdtType):
        if ty.name in type_params:
            return TypeVarRef(ty.name)
        if program.adt(ty.name) is None:
            raise ResolveError(f"unknown type {ty.name!r}", span)
        return ty
    return ty


def _resolve_expr(
    e: Expr, scope: set[str], program: SurfaceProgram, func: FuncDecl
) -> Expr:
    """Resolve the type names in an expression and disambiguate its
    identifiers into variables vs. function references."""
    if isinstance(e, Var):
        if e.name in scope:
            return e
        if program.function(e.name) is not None:
            return FuncRef(e.name, span=e.span)
        raise ResolveError(f"unbound identifier {e.name!r} in {func.name!r}", e.span)
    if isinstance(e, Call):
        if (
            e.callee not in scope
            and e.callee not in BUILTIN_FUNCS
            and program.function(e.callee) is None
        ):
            raise ResolveError(f"call to unknown function {e.callee!r} in {func.name!r}", e.span)
        args = tuple(_resolve_expr(a, scope, program, func) for a in e.args)
        return Call(e.callee, args, span=e.span)
    if isinstance(e, Let):
        ty = _resolve_type(e.ty, program, func.type_params, e.span)
        value = _resolve_expr(e.value, scope, program, func)
        body = _resolve_expr(e.body, scope | {e.name}, program, func)
        return Let(e.name, ty, value, body, span=e.span)
    if isinstance(e, AlwaysFail):
        return AlwaysFail(_resolve_type(e.ty, program, func.type_params, e.span), span=e.span)
    if isinstance(e, (Switch, FlexSwitch)):
        if e.scrutinee not in scope:
            raise ResolveError(
                f"switch scrutinee {e.scrutinee!r} is not a variable in scope", e.span
            )
        if isinstance(e, Switch):
            for arm in e.arms:
                if program.variant_owner(arm.variant) is None:
                    raise ResolveError(f"unknown variant {arm.variant!r}", e.span)
        return rebuild(e, [_resolve_expr(c, scope, program, func) for c in children(e)])
    if isinstance(e, Ctor):
        owner = program.variant_owner(e.variant)
        if owner is None:
            raise ResolveError(f"unknown variant {e.variant!r}", e.span)
        decl = owner.variant(e.variant)
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
        fields = tuple(
            (l, _resolve_expr(by_label[l], scope, program, func)) for l in declared
        )
        return Ctor(e.variant, fields, span=e.span)
    return rebuild(e, [_resolve_expr(c, scope, program, func) for c in children(e)])


def _validate(program: SurfaceProgram) -> None:
    seen_adts: set[str] = set()
    seen_variants: set[str] = set()
    for adt in program.adts:
        if adt.name in seen_adts:
            raise ResolveError(f"duplicate ADT declaration {adt.name!r}", adt.span, adt.source)
        seen_adts.add(adt.name)
        for v in adt.variants:
            if v.name in seen_variants:
                raise ResolveError(f"duplicate variant name {v.name!r}", v.span, adt.source)
            seen_variants.add(v.name)
            labels = [l for l, _ in v.fields]
            if len(labels) != len(set(labels)):
                raise ResolveError(
                    f"duplicate field label in variant {v.name!r}", v.span, adt.source
                )
            for _, t in v.fields:
                try:
                    _resolve_type(t, program, (), v.span)
                except ResolveError as err:
                    raise err.located(adt.source)
    seen_funcs: set[str] = set()
    for f in program.functions:
        if f.name in seen_funcs:
            raise ResolveError(f"duplicate function declaration {f.name!r}", f.span, f.source)
        seen_funcs.add(f.name)


def _concrete_surface(ty: TypeExpr) -> bool:
    if isinstance(ty, ArrayType):
        return _concrete_surface(ty.elem)
    return not isinstance(ty, (TypeVarRef, FunType))


def _resolve_func(f: FuncDecl, program: SurfaceProgram) -> FuncDecl:
    params = tuple(
        (n, _resolve_type(t, program, f.type_params, f.span)) for n, t in f.params
    )
    for n, t in params:
        if f.is_harness and not _concrete_surface(t):
            raise ResolveError(
                f"harness {f.name!r} parameter {n!r} must have a concrete type", f.span
            )
        if isinstance(t, ArrayType) and isinstance(t.elem, FunType):
            raise ResolveError("fun[] is not a valid parameter type", f.span)
    return dataclasses.replace(
        f,
        params=params,
        ret=_resolve_type(f.ret, program, f.type_params, f.span),
        body=_resolve_expr(f.body, {n for n, _ in params}, program, f),
    )


def resolve(program: SurfaceProgram) -> SurfaceProgram:
    """Resolve a whole program, library included, in one walk per function.

    Every type name must be a declared ADT or one of the function's type
    variables, every identifier a variable in scope or a function, every
    call target a function, a `fun` in scope or a built-in.
    """
    _validate(program)
    funcs = []
    for f in program.functions:
        try:
            funcs.append(_resolve_func(f, program))
        except ResolveError as err:
            raise err.located(f.source)
    return SurfaceProgram(program.adts, tuple(funcs))


# ---------------------------------------------------------------------------
# Entry points


def parse(text: str, source: str | None = None) -> SurfaceProgram:
    """Parse a source without resolving it; raises ParseError with spans,
    naming `source` (a path or `<prelude>`) when it is given."""
    try:
        return _Parser(tokenize(text), source).parse_program()
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
    user_adt_names = {a.name for a in user.adts}
    adts = list(user.adts)
    for a in lib.adts:
        if a.name in user_adt_names:
            mine = user.adt(a.name)
            if mine.variants != a.variants:
                raise ResolveError(
                    f"ADT {a.name!r} conflicts with its declaration in the {lib_name}",
                    mine.span,
                    mine.source,
                )
        else:
            adts.append(a)
    user_func_names = {f.name for f in user.functions}
    funcs = list(user.functions)
    for f in lib.functions:
        if f.name in user_func_names:
            if warn:
                log.warning("user definition of %r shadows the %s version", f.name, lib_name)
        else:
            funcs.append(f)
    return SurfaceProgram(tuple(adts), tuple(funcs))
