"""AST for the synrec kernel language.

Nodes come in three layers that share one tree type:

* standard expressions (variables, lets, calls, switch, constructors,
  arrays, asserts, literals, operators, if),
* classic synthesis constructs (``??`` holes and ``choose``),
* polymorphic synthesis constructs (``case?``, ``fields?``, ``cons?``,
  polymorphic generator calls), which only survive until expansion.

All nodes are dataclasses; source spans are excluded from equality so
structural comparison ignores layout.  Child sequences are tuples, so a
parsed program is immutable for practical purposes; passes rebuild nodes
with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class Span(NamedTuple):
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    """Base class for type expressions (concrete types and open types)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PrimType(TypeExpr):
    name: str  # "int" | "bit"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class UnitType(TypeExpr):
    """Type of asserts and of `void` function bodies."""

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True, slots=True)
class AdtType(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RecordType(TypeExpr):
    """Variant record type; a switch arm rebinds the scrutinee at this type.

    `variant` remembers which variant the record came from so diagnostics
    and field lists stay readable; equality includes it.
    """

    variant: str
    fields: tuple[tuple[str, TypeExpr], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{l}: {t}" for l, t in self.fields)
        return f"{self.variant}{{{inner}}}"

    def field_type(self, label: str) -> Optional[TypeExpr]:
        for l, t in self.fields:
            if l == label:
                return t
        return None


@dataclass(frozen=True, slots=True)
class ArrayType(TypeExpr):
    elem: TypeExpr

    def __str__(self) -> str:
        return f"{self.elem}[]"


@dataclass(frozen=True, slots=True)
class FunType(TypeExpr):
    """The opaque `fun` parameter type; concretized only through inlining."""

    def __str__(self) -> str:
        return "fun"


@dataclass(frozen=True, slots=True)
class ArrowType(TypeExpr):
    params: tuple[TypeExpr, ...]
    ret: TypeExpr

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"({ps}) -> {self.ret}"


@dataclass(frozen=True, slots=True)
class TypeVarRef(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


INT = PrimType("int")
BIT = PrimType("bit")
UNIT = UnitType()
FUN = FunType()


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@dataclass(eq=True, slots=True)
class Var(Expr):
    name: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class FuncRef(Expr):
    """A function name used as a value (passed where `fun` is expected)."""

    name: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class IntLit(Expr):
    value: int
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class UnitLit(Expr):
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Let(Expr):
    name: str
    ty: TypeExpr
    value: Expr
    body: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Call(Expr):
    """Call of a named function, generator, or `fun`-typed parameter."""

    callee: str
    args: tuple[Expr, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class SwitchArm:
    variant: str
    body: Expr


@dataclass(eq=True, slots=True)
class Switch(Expr):
    scrutinee: str  # must be a variable, per the static semantics
    arms: tuple[SwitchArm, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class FieldAccess(Expr):
    base: Expr
    label: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Ctor(Expr):
    variant: str
    fields: tuple[tuple[str, Expr], ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class ArrayLit(Expr):
    items: tuple[Expr, ...]
    # Element type recorded by expansion (required for empty literals);
    # not part of structural equality so parse/print round-trips hold.
    elem_ty: Optional[TypeExpr] = field(default=None, compare=False)
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Index(Expr):
    base: Expr
    index: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Assert(Expr):
    cond: Expr
    aid: int = field(default=-1, compare=False)
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class BinOp(Expr):
    op: str  # + - * == != < <= > >= && ||
    lhs: Expr
    rhs: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class UnOp(Expr):
    op: str  # !
    operand: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


# -- classic synthesis constructs -------------------------------------------


@dataclass(eq=True, slots=True)
class Hole(Expr):
    """`??`: unknown int/bit constant.  `cp`/`ty` are set by expansion."""

    cp: Optional[int] = None
    ty: Optional[TypeExpr] = None
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class Choice(Expr):
    """`choose(e1,...,en)`.  `cp` is set by expansion."""

    arms: tuple[Expr, ...]
    cp: Optional[int] = None
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class AlwaysFail(Expr):
    """Inline-bound placeholder; evaluating it is a candidate failure.

    Carries the type the context required so expanded programs still
    type-check.  Surface syntax: ``unreachable<T>``.
    """

    ty: TypeExpr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


# -- polymorphic synthesis constructs ----------------------------------------


@dataclass(eq=True, slots=True)
class FieldsOf(Expr):
    """`e.fields?`"""

    base: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class FlexSwitch(Expr):
    """`switch(x){case?: e}`"""

    scrutinee: str
    body: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class UnknownCtor(Expr):
    """`new cons?(e1,...,em)`"""

    args: tuple[Expr, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class GenLambda(Expr):
    """A zero-argument generator lambda wrapping an expression argument.

    Created when an expression is passed where a `fun` parameter is
    expected; re-expanded at every invocation site so each call can make
    independent synthesis choices.  Internal to expansion.
    """

    body: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class BoxMake(Expr):
    """Deferred recursive call installed by inductive decomposition.

    Evaluates its arguments and produces a boxed placeholder instead of
    recursing into the function under synthesis.
    """

    trans: str
    term: Expr
    gamma: Optional[Expr]
    ty: TypeExpr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


PSC_NODES = (FieldsOf, FlexSwitch, UnknownCtor, GenLambda)


# ---------------------------------------------------------------------------
# Declarations


@dataclass(eq=True, slots=True)
class VariantDecl:
    name: str
    fields: tuple[tuple[str, TypeExpr], ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def record_type(self) -> RecordType:
        return RecordType(self.name, self.fields)


@dataclass(eq=True, slots=True)
class AdtDecl:
    name: str
    variants: tuple[VariantDecl, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def variant(self, name: str) -> Optional[VariantDecl]:
        for v in self.variants:
            if v.name == name:
                return v
        return None


STANDARD = "standard"
GENERATOR = "generator"
POLYGEN = "polygen"


@dataclass(eq=True, slots=True)
class Annotation:
    name: str
    args: tuple[str, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(eq=True, slots=True)
class FuncDecl:
    kind: str  # STANDARD | GENERATOR | POLYGEN
    name: str
    type_params: tuple[str, ...]
    params: tuple[tuple[str, TypeExpr], ...]
    ret: TypeExpr
    body: Expr
    is_harness: bool = False
    annotations: tuple[Annotation, ...] = ()
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def param_type(self, name: str) -> Optional[TypeExpr]:
        for p, t in self.params:
            if p == name:
                return t
        return None

    def annotation(self, name: str) -> Optional[Annotation]:
        for a in self.annotations:
            if a.name == name:
                return a
        return None


@dataclass(eq=True, slots=True)
class SurfaceProgram:
    adts: tuple[AdtDecl, ...]
    functions: tuple[FuncDecl, ...]

    @property
    def harnesses(self) -> tuple[FuncDecl, ...]:
        return tuple(f for f in self.functions if f.is_harness)

    def adt(self, name: str) -> Optional[AdtDecl]:
        for a in self.adts:
            if a.name == name:
                return a
        return None

    def function(self, name: str) -> Optional[FuncDecl]:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def variant_owner(self, variant: str) -> Optional[AdtDecl]:
        for a in self.adts:
            if a.variant(variant) is not None:
                return a
        return None


# Passes look nodes up by their exact type (no node class is subclassed):
# one dict lookup per node instead of a chain of isinstance tests.
_CHILDREN = {
    Let: lambda e: (e.value, e.body),
    Call: lambda e: e.args,
    Switch: lambda e: tuple(a.body for a in e.arms),
    FieldAccess: lambda e: (e.base,),
    Ctor: lambda e: tuple(x for _, x in e.fields),
    ArrayLit: lambda e: e.items,
    Index: lambda e: (e.base, e.index),
    Assert: lambda e: (e.cond,),
    BinOp: lambda e: (e.lhs, e.rhs),
    UnOp: lambda e: (e.operand,),
    If: lambda e: (e.cond, e.then, e.els),
    Choice: lambda e: e.arms,
    FieldsOf: lambda e: (e.base,),
    FlexSwitch: lambda e: (e.body,),
    UnknownCtor: lambda e: e.args,
    GenLambda: lambda e: (e.body,),
    BoxMake: lambda e: (e.term,) if e.gamma is None else (e.term, e.gamma),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of a node, for generic walks."""
    kids = _CHILDREN.get(type(e))
    return () if kids is None else kids(e)


# each takes the node and an iterator over its new children
_REBUILD = {
    Let: lambda e, it: Let(e.name, e.ty, next(it), next(it), span=e.span),
    Call: lambda e, it: Call(e.callee, tuple(it), span=e.span),
    Switch: lambda e, it: Switch(
        e.scrutinee, tuple(SwitchArm(a.variant, b) for a, b in zip(e.arms, it)), span=e.span
    ),
    FieldAccess: lambda e, it: FieldAccess(next(it), e.label, span=e.span),
    Ctor: lambda e, it: Ctor(e.variant, tuple((l, next(it)) for l, _ in e.fields), span=e.span),
    ArrayLit: lambda e, it: ArrayLit(tuple(it), elem_ty=e.elem_ty, span=e.span),
    Index: lambda e, it: Index(next(it), next(it), span=e.span),
    Assert: lambda e, it: Assert(next(it), aid=e.aid, span=e.span),
    BinOp: lambda e, it: BinOp(e.op, next(it), next(it), span=e.span),
    UnOp: lambda e, it: UnOp(e.op, next(it), span=e.span),
    If: lambda e, it: If(next(it), next(it), next(it), span=e.span),
    Choice: lambda e, it: Choice(tuple(it), cp=e.cp, span=e.span),
    FieldsOf: lambda e, it: FieldsOf(next(it), span=e.span),
    FlexSwitch: lambda e, it: FlexSwitch(e.scrutinee, next(it), span=e.span),
    UnknownCtor: lambda e, it: UnknownCtor(tuple(it), span=e.span),
    GenLambda: lambda e, it: GenLambda(next(it), span=e.span),
    BoxMake: lambda e, it: BoxMake(
        e.trans, next(it), None if e.gamma is None else next(it), e.ty, span=e.span
    ),
}


def rebuild(e: Expr, new_children: list) -> Expr:
    """Rebuild a node with replaced children, preserving everything else."""
    make = _REBUILD.get(type(e))
    return e if make is None else make(e, iter(new_children))


def walk(e: Expr):
    """Yield `e` and every descendant, preorder."""
    stack = [e]
    pop, push, kids_of = stack.pop, stack.extend, _CHILDREN.get
    while stack:
        node = pop()
        yield node
        kids = kids_of(type(node))
        if kids is not None:
            push(kids(node)[::-1])


def contains_psc(e: Expr) -> bool:
    return any(isinstance(n, PSC_NODES) for n in walk(e))
