"""AST for the synrec kernel language.

Nodes come in three layers that share one tree type:

* standard expressions (variables, lets, calls, switch, constructors,
  arrays, asserts, literals, operators, if),
* classic synthesis constructs (``??`` holes and ``choose``),
* polymorphic synthesis constructs (``case?``, ``fields?``, ``cons?``,
  polymorphic generator calls), which only survive until expansion.

All nodes, types and declarations are records (see :func:`record`); source
spans are excluded from equality so structural comparison ignores layout.
Child sequences are tuples, so a parsed program is immutable for practical
purposes; passes rebuild nodes with :func:`replace` or :func:`rebuild`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Span(NamedTuple):
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


# ---------------------------------------------------------------------------
# Records: `record` stands in for `dataclasses.dataclass(eq=True, slots=True)`
# at a fraction of its import cost: the first construction of a pending
# record writes the methods of every pending record in one `exec`.

_MISSING = object()


class field:
    """A record field's default, and whether `==` and `repr` read it."""

    __slots__ = ("default", "factory", "compare", "repr")

    def __init__(self, default=_MISSING, *, default_factory=None, compare=True, repr=True):
        self.default, self.factory = default, default_factory
        self.compare, self.repr = compare, repr


_SPAN = field(NO_SPAN, compare=False, repr=False)
_pending: list = []


def record(cls=None, /, *, frozen=False, slots=True, span=False):
    """Class decorator: make `cls` a record of its annotated fields, after
    those of a record it extends, and then of `span` if `span` is set.
    `record` gives it `__init__`, `__repr__`, `__eq__` and, if frozen,
    `__hash__`; other records are unhashable.  `cls._fields` maps each
    field's name to its `field`."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, slots=slots, span=span)
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    own = {n: ns.pop(n, _MISSING) for n in ns.get("__annotations__", ())}
    own |= {"span": _SPAN} if span else {}
    if slots:
        ns["__slots__"] = tuple(own)
        name, cls = cls.__qualname__, type(cls)(cls.__name__, cls.__bases__, ns)
        cls.__qualname__ = name
    cls._fields = getattr(cls, "_fields", {}) | {
        n: d if type(d) is field else field(d) for n, d in own.items()
    }
    cls.__init__, cls.__repr__, cls.__hash__ = _define_then_init, _repr, None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    _pending.append((cls, frozen))
    return cls


node = record(span=True)


def _repr(self) -> str:
    shown = (f"{n}={getattr(self, n)!r}" for n, f in self._fields.items() if f.repr)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _define_then_init(self, *args, **kwargs):
    """The `__init__` of each pending record: write the `__init__`, `__eq__`
    and `__hash__` of them all, then run the real one."""
    lines = []
    for k, (cls, frozen) in enumerate(_pending):
        fields = cls._fields.items()
        params, sets = [], []
        for i, (n, f) in enumerate(fields):
            value, param = n, n if f.default is _MISSING else f"{n}=_d[{i}].default"
            if f.factory:
                value, param = f"_d[{i}].factory() if {n} is _MISSING else {n}", f"{n}=_MISSING"
            params.append(param)
            sets.append(f"_setattr(self, {n!r}, {value})" if frozen else f"self.{n} = {value}")
        if hasattr(cls, "__post_init__"):
            sets.append("self.__post_init__()")
        compared = "".join(f"self.{n}," for n, f in fields if f.compare)
        lines += [
            f"def _make{k}(_d):",
            f" def __init__(self, {', '.join(params)}):", *(f"  {s}" for s in sets or ["pass"]),
            " def __eq__(self, other):",
            "  if other.__class__ is not self.__class__: return NotImplemented",
            f"  return ({compared}) == ({compared.replace('self.', 'other.')})",
            *([f" def __hash__(self): return hash(({compared}))"] if frozen else []),
            f" return __init__, __eq__{', __hash__' if frozen else ''}",
        ]
    env = {"_MISSING": _MISSING, "_setattr": object.__setattr__}
    exec("\n".join(lines), env)
    for k, (cls, _) in enumerate(_pending):
        for fn in env[f"_make{k}"](tuple(cls._fields.values())):
            setattr(cls, fn.__name__, fn)
    _pending.clear()
    self.__init__(*args, **kwargs)


def replace(obj, /, **changes):
    """A copy of record `obj` with `changes` to its fields, spans kept."""
    return obj.__class__(**{n: getattr(obj, n) for n in obj._fields} | changes)


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    """Base class for type expressions (concrete types and open types)."""

    __slots__ = ()


@record(frozen=True)
class PrimType(TypeExpr):
    name: str  # "int" | "bit"

    def __str__(self) -> str:
        return self.name


@record(frozen=True)
class UnitType(TypeExpr):
    """Type of asserts and of `void` function bodies."""

    def __str__(self) -> str:
        return "void"


@record(frozen=True)
class AdtType(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@record(frozen=True)
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


@record(frozen=True)
class ArrayType(TypeExpr):
    elem: TypeExpr

    def __str__(self) -> str:
        return f"{self.elem}[]"


@record(frozen=True)
class FunType(TypeExpr):
    """The opaque `fun` parameter type; concretized only through inlining."""

    def __str__(self) -> str:
        return "fun"


@record(frozen=True)
class ArrowType(TypeExpr):
    params: tuple[TypeExpr, ...]
    ret: TypeExpr

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"({ps}) -> {self.ret}"


@record(frozen=True)
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


@node
class Var(Expr):
    name: str


@node
class FuncRef(Expr):
    """A function name used as a value (passed where `fun` is expected)."""

    name: str


@node
class IntLit(Expr):
    value: int


@node
class UnitLit(Expr):
    """The unit value."""


@node
class Let(Expr):
    name: str
    ty: TypeExpr
    value: Expr
    body: Expr


@node
class Call(Expr):
    """Call of a named function, generator, or `fun`-typed parameter."""

    callee: str
    args: tuple[Expr, ...]


@record
class SwitchArm:
    variant: str
    body: Expr


@node
class Switch(Expr):
    scrutinee: str  # must be a variable, per the static semantics
    arms: tuple[SwitchArm, ...]


@node
class FieldAccess(Expr):
    base: Expr
    label: str


@node
class Ctor(Expr):
    variant: str
    fields: tuple[tuple[str, Expr], ...]


@node
class ArrayLit(Expr):
    items: tuple[Expr, ...]
    # Element type recorded by expansion (required for empty literals);
    # not part of structural equality so parse/print round-trips hold.
    elem_ty: Optional[TypeExpr] = field(default=None, compare=False)


@node
class Index(Expr):
    base: Expr
    index: Expr


@node
class Assert(Expr):
    cond: Expr
    aid: int = field(default=-1, compare=False)


@node
class BinOp(Expr):
    op: str  # + - * == != < <= > >= && ||
    lhs: Expr
    rhs: Expr


@node
class UnOp(Expr):
    op: str  # !
    operand: Expr


@node
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


# -- classic synthesis constructs -------------------------------------------


@node
class Hole(Expr):
    """`??`: unknown int/bit constant.  `cp`/`ty` are set by expansion."""

    cp: Optional[int] = None
    ty: Optional[TypeExpr] = None


@node
class Choice(Expr):
    """`choose(e1,...,en)`.  `cp` is set by expansion."""

    arms: tuple[Expr, ...]
    cp: Optional[int] = None


@node
class AlwaysFail(Expr):
    """Inline-bound placeholder; evaluating it is a candidate failure.

    Carries the type the context required so expanded programs still
    type-check.  Surface syntax: ``unreachable<T>``.
    """

    ty: TypeExpr


# -- polymorphic synthesis constructs ----------------------------------------


@node
class FieldsOf(Expr):
    """`e.fields?`"""

    base: Expr


@node
class FlexSwitch(Expr):
    """`switch(x){case?: e}`"""

    scrutinee: str
    body: Expr


@node
class UnknownCtor(Expr):
    """`new cons?(e1,...,em)`"""

    args: tuple[Expr, ...]


@record
class GenLambda(Expr):
    """A zero-argument generator lambda wrapping an expression argument.

    Created when an expression is passed where a `fun` parameter is
    expected; re-expanded at every invocation site so each call can make
    independent synthesis choices.  Internal to expansion.  `source` is
    the file of the expression, which its expansion errors name.
    """

    body: Expr
    span: Span = _SPAN
    source: str | None = field(default=None, compare=False, repr=False)


@node
class BoxMake(Expr):
    """Deferred recursive call installed by inductive decomposition.

    Evaluates its arguments and produces a boxed placeholder instead of
    recursing into the function under synthesis.
    """

    trans: str
    term: Expr
    gamma: Optional[Expr]
    ty: TypeExpr


PSC_NODES = (FieldsOf, FlexSwitch, UnknownCtor, GenLambda)


# ---------------------------------------------------------------------------
# Declarations


@node
class VariantDecl:
    name: str
    fields: tuple[tuple[str, TypeExpr], ...]

    def record_type(self) -> RecordType:
        return RecordType(self.name, self.fields)


@record
class AdtDecl:
    name: str
    variants: tuple[VariantDecl, ...]
    span: Span = _SPAN
    # the input the declaration was parsed from, for diagnostics
    source: Optional[str] = field(default=None, compare=False, repr=False)

    def variant(self, name: str) -> Optional[VariantDecl]:
        for v in self.variants:
            if v.name == name:
                return v
        return None


STANDARD = "standard"
GENERATOR = "generator"
POLYGEN = "polygen"


@node
class Annotation:
    name: str
    args: tuple[str, ...]


@record
class FuncDecl:
    kind: str  # STANDARD | GENERATOR | POLYGEN
    name: str
    type_params: tuple[str, ...]
    params: tuple[tuple[str, TypeExpr], ...]
    ret: TypeExpr
    body: Expr
    is_harness: bool = False
    annotations: tuple[Annotation, ...] = ()
    span: Span = _SPAN
    source: Optional[str] = field(default=None, compare=False, repr=False)  # as in AdtDecl

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


@record
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
    GenLambda: lambda e, it: GenLambda(next(it), span=e.span, source=e.source),
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
