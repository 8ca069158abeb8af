"""Type-directed expansion of polymorphic synthesis constructs.

Expansion pushes required types top-down and eliminates every `case?`,
`fields?`, `cons?`, and generator call, leaving a program whose only
unknowns are enumerated holes and choices (the control space).  Generator
bodies are inlined per call with fresh control points; recursive generator
chains are cut at a per-path inlining bound by an always-failing node.
Standard recursive functions (interpreters and the function under
synthesis) are left as calls so decomposition and the evaluator can handle
them.

A generator call is expanded once per key, into a template (hash-consing):
the key is everything its expansion depends on, namely the call with its
spans, the types of the names it uses, the required type and the path's
inlining counters.  A record type enters the key as its field list and
the index of its variant among the key's, so `case?` arms over variants
with equal fields share a template, unless it is `exact` (see `_build`).
The template's control ids count from 0, its origin trails start at the
call site, and labels stand for its fresh names.
Every call with the key, the first one included, instantiates the
template at the next control id, and makes its fresh names in the order
the expansion made them; a failed expansion adds its control points and
fails again.  So the program, its control space and its read order are
those of inlining every call afresh.  The program holds instances inside
choice arms as references, copied on demand, and the expansion is
validated once per template (see `instances`).

One expansion runs sequentially (control-point ids come from a local
counter) and is deterministic: the same program and context give a
bit-identical result.  Templates live in one `Expander`, which serves one
expansion.  Independent expansions may run concurrently.
"""

from __future__ import annotations

import logging
import re
from functools import cached_property
from typing import NamedTuple

from .ast import (
    BIT,
    INT,
    POLYGEN,
    STANDARD,
    AdtType,
    AlwaysFail,
    ArrayLit,
    ArrayType,
    ArrowType,
    Assert,
    BinOp,
    BoxMake,
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
    GenLambda,
    Hole,
    If,
    Index,
    IntLit,
    Let,
    PrimType,
    RecordType,
    Span,
    SurfaceProgram,
    Switch,
    SwitchArm,
    TypeExpr,
    UnitLit,
    UnitType,
    UnknownCtor,
    UnOp,
    Var,
    children,
    contains_psc,
    rebuild,
    record,
    replace,
    walk,
)
from .errors import ExpandError, InternalError, TypeCheckError, UnifyError
from .instances import _NAME_FIELDS, _Template, _Use, _materialize, validate_expansion
from .typesys import (
    ARITH_OPS,
    BOOL_OPS,
    EQ_OPS,
    REL_OPS,
    TypeEnv,
    apply_subst,
    is_concrete,
    signature_type,
    type_of,
    unify,
)

log = logging.getLogger("synrec")


class ControlPoint(NamedTuple):
    """One enumerated decision: an integer/bit hole or an n-way choice."""

    id: int
    kind: str  # "hole" | "choice"
    lo: int = 0
    hi: int = 0  # holes: inclusive domain; choices: hi = arity - 1
    ty: TypeExpr | None = None
    origin: tuple = ()

    @property
    def arity(self) -> int:
        return self.hi - self.lo + 1


@record(frozen=True)
class ExpansionContext:
    """The expansion bounds of a `SynthesisConfig`, which holds their defaults."""

    inline_bound: int
    hole_lo: int
    hole_hi: int


@record(slots=False)
class ExpandedProgram:
    """PSC-free, generator-free program plus its control space.  Its
    choice arms may hold instances as `_Use`s (see `force_expansion`)."""

    program: SurfaceProgram
    control_space: tuple[ControlPoint, ...]

    @property
    def functions(self):
        return self.program.functions

    @cached_property
    def defaults(self) -> dict[int, int]:
        """The assignment of each control point's first domain value."""
        return {p.id: p.lo for p in self.control_space}


@record(frozen=True)
class _Path:
    """Per-branch inlining state: counters and the call-site trail."""

    counters: tuple[tuple[str, int], ...] = ()
    trail: tuple[str, ...] = ()

    def count(self, name: str) -> int:
        for k, v in self.counters:
            if k == name:
                return v
        return 0

    def enter(self, name: str) -> "_Path":
        counters = tuple((k, v + 1 if k == name else v) for k, v in self.counters)
        if all(k != name for k, _ in self.counters):
            counters = counters + ((name, 1),)
        return _Path(counters, self.trail + (name,))


_TRIVIAL_ARG = (Var, IntLit, FuncRef, GenLambda)

# A label stands for a fresh name while a template is built: `#<frame>.<k>`
# is the k-th fresh name of template frame <frame>.  No source name has a
# `#`, so a label never meets a real name.
_LABEL = re.compile(r"#\d+\.\d+")


def _flatten(points: list, base: int, trail: tuple, out: list) -> None:
    """Append a template's control points to `out`, ids shifted by `base`
    and origin trails prefixed by `trail`."""
    for p in points:
        if type(p) is _Use:
            _flatten(p.template.points, base + p.offset, trail + p.trail, out)
        else:
            span, rel = p.origin
            out.append(ControlPoint(p.id + base, p.kind, p.lo, p.hi, p.ty, (span, trail + rel)))


def _loose(t: TypeExpr | None, variants: dict[str, int]):
    """`t` for a template's key: each record type in it as its field list
    and the index of its variant among those of the key met so far
    (`variants`), so that two keys match when one renames the other's
    variants one-to-one."""
    k = type(t)
    if k is RecordType:
        return variants.setdefault(t.variant, len(variants)), t.fields
    if k is ArrayType:
        elem = _loose(t.elem, variants)
        return t if elem is t.elem else ("[]", elem)
    return t


def _has_record(t: TypeExpr) -> bool:
    while type(t) is ArrayType:
        t = t.elem
    return type(t) is RecordType


def _renders_record(e: Expr) -> bool:
    """Whether the node holds a type with a record in it."""
    t = type(e)
    if t is Let or t is AlwaysFail:
        return _has_record(e.ty)
    return t is ArrayLit and _has_record(e.elem_ty)


# the fields of each expression node, for the structural key of a call
_FIELDS = {
    cls: tuple(cls._fields)
    for cls in (
        Var, FuncRef, IntLit, UnitLit, Let, Call, Switch, SwitchArm, FieldAccess, Ctor,
        ArrayLit, Index, Assert, BinOp, UnOp, If, Hole, Choice, AlwaysFail, FieldsOf,
        FlexSwitch, UnknownCtor, GenLambda, BoxMake,
    )
}


def _shape(x, names: list):
    """`x` as nested tuples, spans included, collecting the names it uses."""
    t = type(x)
    fs = _FIELDS.get(t)
    if fs is not None:
        field = _NAME_FIELDS.get(t)
        if field is not None:
            names.append(getattr(x, field))
        return (t,) + tuple([_shape(getattr(x, f), names) for f in fs])
    if t is tuple:
        return tuple([_shape(v, names) for v in x])
    return x


class Expander:
    def __init__(self, program: SurfaceProgram, ctx: ExpansionContext):
        self.program = program
        self.ctx = ctx
        # The current frame: the program's control points and real fresh
        # names, or, while a template is built, its own (`bases` is then
        # the list of its fresh calls, and `frame` its label prefix).
        self.points: list = []
        self.size = 0
        self.bases: list[str] | None = None
        self.frame = 0
        self._frames = 0
        # whether the frame bound a switch arm or used an exact template
        # (see `_build`)
        self.pinned = False
        self.source: str | None = None  # the file of the body being expanded
        self._spliced: dict[int, GenLambda] = {}  # lambdas called, by body id
        self._templates: dict = {}
        self._shapes: dict = {}
        self._used_names: set[str] = set()
        for f in program.functions:
            self._used_names.add(f.name)
            self._used_names.update(n for n, _ in f.params)
            if f.kind == STANDARD:
                for node in walk(f.body):
                    if isinstance(node, Let):
                        self._used_names.add(node.name)

    # -- plumbing -------------------------------------------------------------

    def fresh(self, base: str) -> str:
        if self.bases is not None:
            self.bases.append(base)
            return f"#{self.frame}.{len(self.bases) - 1}"
        if base != "_" and base not in self._used_names:
            self._used_names.add(base)
            return base
        n = 2
        while f"{base}_{n}" in self._used_names:
            n += 1
        name = f"{base}_{n}"
        self._used_names.add(name)
        return name

    def _new_point(self, kind: str, lo: int, hi: int, ty, span: Span, path: _Path) -> int:
        cp = self.size
        self.points.append(ControlPoint(cp, kind, lo, hi, ty, (span, path.trail)))
        self.size = cp + 1
        return cp

    def new_hole(self, ty: PrimType, span: Span, path: _Path) -> Hole:
        if ty == BIT:
            lo, hi = 0, 1
        else:
            lo, hi = self.ctx.hole_lo, self.ctx.hole_hi
        return Hole(cp=self._new_point("hole", lo, hi, ty, span, path), ty=ty, span=span)

    def new_choice(self, arms: tuple[Expr, ...], span: Span, path: _Path) -> Expr:
        if len(arms) == 1:
            return arms[0]
        cp = self._new_point("choice", 0, len(arms) - 1, None, span, path)
        return Choice(arms, cp=cp, span=span)

    # -- the expansion judgement ------------------------------------------------

    def expand_in(self, source, env: TypeEnv, e: Expr, required: TypeExpr, path: _Path) -> Expr:
        """Expand `e`, part of a body written in the file `source`: its
        errors name that file, unless an inner body named its own."""
        saved, self.source = self.source, source
        try:
            return self.expand(env, e, required, path)
        except ExpandError as err:
            raise err.located(source)
        finally:
            self.source = saved

    def expand(self, env: TypeEnv, e: Expr, required: TypeExpr, path: _Path) -> Expr:
        lam = self._spliced.get(id(e))
        if lam is not None and lam.source != self.source:
            # a generator lambda's body, written in its caller's file
            return self.expand_in(lam.source, env, e, required, path)
        t = type(e)
        if t is Var:
            vt = env.lookup(e.name)
            if vt is None:
                raise ExpandError(f"unbound variable {e.name!r}", e.span)
            if vt != required:
                raise ExpandError(f"{e.name!r} has type {vt}, required {required}", e.span)
            return e
        if t is IntLit:
            if required == INT:
                return e
            if required == BIT and e.value in (0, 1):
                return e
            raise ExpandError(f"literal {e.value} cannot have type {required}", e.span)
        if t is UnitLit:
            if isinstance(required, UnitType):
                return e
            raise ExpandError(f"missing return value of type {required}", e.span)
        if t is FuncRef:
            if isinstance(required, FunType):
                return e
            f = self.program.function(e.name)
            if f is not None and f.kind == STANDARD and isinstance(required, ArrowType):
                if signature_type(f) == required:
                    return e
            raise ExpandError(
                f"function reference {e.name!r} cannot have type {required}", e.span
            )
        if t is GenLambda:
            raise ExpandError(
                "expression-as-generator may only appear as a call or argument", e.span
            )
        if t is Let:
            if not is_concrete(e.ty) and not isinstance(e.ty, UnitType):
                raise ExpandError(
                    f"type variable in declaration of {e.name!r} where a concrete type "
                    "is expected",
                    e.span,
                )
            value = self.expand(env, e.value, e.ty, path)
            body = self.expand(env.bind(e.name, e.ty), e.body, required, path)
            return Let(e.name, e.ty, value, body, span=e.span)
        if t is Call:
            return self.expand_call(env, e, required, path)
        if t is Switch:
            return self.expand_switch(env, e, required, path)
        if t is FlexSwitch:
            return self.expand_flex_match(env, e, required, path)
        if t is FieldAccess:
            ft = self._path_type(env, e)
            if ft != required:
                raise ExpandError(f"field access has type {ft}, required {required}", e.span)
            return e
        if t is Ctor:
            owner = self.program.variant_owner(e.variant)
            if owner is None:
                raise ExpandError(f"unknown variant {e.variant!r}", e.span)
            if required != AdtType(owner.name):
                raise ExpandError(
                    f"constructor {e.variant!r} builds {owner.name}, required {required}",
                    e.span,
                )
            decl = owner.variant(e.variant)
            declared = dict(decl.fields)
            fields = tuple(
                (l, self.expand(env, v, declared[l], path)) for l, v in e.fields
            )
            return Ctor(e.variant, fields, span=e.span)
        if t is ArrayLit:
            if not isinstance(required, ArrayType):
                raise ExpandError(f"array literal where {required} expected", e.span)
            items = tuple(self.expand(env, x, required.elem, path) for x in e.items)
            return ArrayLit(items, elem_ty=required.elem, span=e.span)
        if t is Index:
            base = self.expand(env, e.base, ArrayType(required), path)
            index = self.expand(env, e.index, INT, path)
            return Index(base, index, span=e.span)
        if t is Assert:
            if not isinstance(required, UnitType):
                raise ExpandError(f"assert used where {required} expected", e.span)
            return Assert(self.expand(env, e.cond, BIT, path), aid=e.aid, span=e.span)
        if t is BinOp:
            return self.expand_binop(env, e, required, path)
        if t is UnOp:
            if required != BIT:
                raise ExpandError(f"'!' produces bit, required {required}", e.span)
            return UnOp("!", self.expand(env, e.operand, BIT, path), span=e.span)
        if t is If:
            if isinstance(e.cond, Hole):
                # `if (??)` is the classic template disjunction: treat it as a
                # two-way choice so branches filter independently.
                return self.expand_choice(
                    env, Choice((e.then, e.els), span=e.span), required, path
                )
            cond = self.expand(env, e.cond, BIT, path)
            then = self.expand(env, e.then, required, path)
            els = self.expand(env, e.els, required, path)
            return If(cond, then, els, span=e.span)
        if t is Hole:
            if required in (INT, BIT):
                return self.new_hole(required, e.span, path)
            raise ExpandError(f"?? requires an int or bit context, got {required}", e.span)
        if t is Choice:
            return self.expand_choice(env, e, required, path)
        if t is AlwaysFail:
            if e.ty != required:
                raise ExpandError(
                    f"unreachable<{e.ty}> used where {required} expected", e.span
                )
            return e
        if t is FieldsOf:
            return self.expand_field_list(env, e, required)
        if t is UnknownCtor:
            return self.expand_unknown_constructor(env, e, required, path)
        if t is BoxMake:
            raise InternalError("decomposition node reached the expander")
        raise InternalError(f"expander met unknown node {type(e).__name__}")

    def _path_type(self, env: TypeEnv, e: Expr) -> TypeExpr:
        """Type a variable-or-field-path scrutinee bottom-up."""
        if isinstance(e, Var):
            t = env.lookup(e.name)
            if t is None:
                raise ExpandError(f"unbound variable {e.name!r}", e.span)
            return t
        if isinstance(e, FieldAccess):
            bt = self._path_type(env, e.base)
            if isinstance(bt, RecordType):
                ft = bt.field_type(e.label)
                if ft is None:
                    raise ExpandError(f"no field {e.label!r} in {bt}", e.span)
                return ft
            raise ExpandError(f"field access on non-record type {bt}", e.span)
        raise ExpandError(
            "only variables and field paths are allowed here", getattr(e, "span", None)
        )

    def expand_binop(self, env: TypeEnv, e: BinOp, required: TypeExpr, path: _Path) -> Expr:
        if e.op in ARITH_OPS:
            if required != INT:
                raise ExpandError(f"{e.op!r} produces int, required {required}", e.span)
            return BinOp(
                e.op,
                self.expand(env, e.lhs, INT, path),
                self.expand(env, e.rhs, INT, path),
                span=e.span,
            )
        if e.op in REL_OPS or e.op in BOOL_OPS:
            if required != BIT:
                raise ExpandError(f"{e.op!r} produces bit, required {required}", e.span)
            operand_ty = INT if e.op in REL_OPS else BIT
            return BinOp(
                e.op,
                self.expand(env, e.lhs, operand_ty, path),
                self.expand(env, e.rhs, operand_ty, path),
                span=e.span,
            )
        if e.op in EQ_OPS:
            if required != BIT:
                raise ExpandError(f"{e.op!r} produces bit, required {required}", e.span)
            t = self._try_type(env, e.lhs)
            if t is None:
                t = self._try_type(env, e.rhs)
            if t is None:
                raise ExpandError(
                    "cannot determine the operand type of an equality", e.span
                )
            return BinOp(
                e.op,
                self.expand(env, e.lhs, t, path),
                self.expand(env, e.rhs, t, path),
                span=e.span,
            )
        raise InternalError(f"unknown operator {e.op!r}")

    def _try_type(self, env: TypeEnv, e: Expr) -> TypeExpr | None:
        if contains_psc(e) or any(isinstance(n, (Hole, Choice)) for n in walk(e)):
            return None
        try:
            return type_of(env, e)
        except TypeCheckError:
            return None

    def expand_choice(self, env: TypeEnv, e: Choice, required: TypeExpr, path: _Path) -> Expr:
        survivors: list[Expr] = []
        for arm in e.arms:
            try:
                survivors.append(self.expand(env, arm, required, path))
            except ExpandError as err:
                log.debug("choice arm dropped at %s: %s", err.span, err.message)
        if not survivors:
            raise ExpandError(
                f"no alternative of this choice fits the required type {required}", e.span
            )
        return self.new_choice(tuple(survivors), e.span, path)

    # -- FL --------------------------------------------------------------------

    def expand_field_list(self, env: TypeEnv, e: FieldsOf, required: TypeExpr) -> Expr:
        if not isinstance(required, ArrayType):
            raise ExpandError(
                f"fields? needs an array context, required type is {required}", e.span
            )
        bt = self._path_type(env, e.base)
        if not isinstance(bt, RecordType):
            raise ExpandError(f"fields? scrutinee has non-record type {bt}", e.span)
        items = tuple(
            FieldAccess(e.base, label, span=e.span)
            for label, ft in bt.fields
            if ft == required.elem
        )
        return ArrayLit(items, elem_ty=required.elem, span=e.span)

    # -- FPM -------------------------------------------------------------------

    def expand_flex_match(
        self, env: TypeEnv, e: FlexSwitch, required: TypeExpr, path: _Path
    ) -> Expr:
        st = env.lookup(e.scrutinee)
        if st is None:
            raise ExpandError(f"unbound switch scrutinee {e.scrutinee!r}", e.span)
        if not isinstance(st, AdtType):
            raise ExpandError(
                f"case? scrutinee {e.scrutinee!r} has non-ADT type {st}", e.span
            )
        adt = self.program.adt(st.name)
        self.pinned = True
        arms = []
        for variant in adt.variants:
            arm_env = env.bind(e.scrutinee, variant.record_type())
            arms.append(SwitchArm(variant.name, self.expand(arm_env, e.body, required, path)))
        return Switch(e.scrutinee, tuple(arms), span=e.span)

    def expand_switch(self, env: TypeEnv, e: Switch, required: TypeExpr, path: _Path) -> Expr:
        st = env.lookup(e.scrutinee)
        if not isinstance(st, AdtType):
            raise ExpandError(
                f"switch scrutinee {e.scrutinee!r} has non-ADT type {st}", e.span
            )
        adt = self.program.adt(st.name)
        declared = [v.name for v in adt.variants]
        listed = [a.variant for a in e.arms]
        if sorted(declared) != sorted(listed):
            raise ExpandError(
                f"switch must cover exactly the variants of {adt.name}", e.span
            )
        self.pinned = True
        arms = []
        for arm in e.arms:
            variant = adt.variant(arm.variant)
            arm_env = env.bind(e.scrutinee, variant.record_type())
            arms.append(SwitchArm(arm.variant, self.expand(arm_env, arm.body, required, path)))
        return Switch(e.scrutinee, tuple(arms), span=e.span)

    # -- UC1 / UC2 ----------------------------------------------------------------

    def expand_unknown_constructor(
        self, env: TypeEnv, e: UnknownCtor, required: TypeExpr, path: _Path
    ) -> Expr:
        if isinstance(required, PrimType):
            return self.new_hole(required, e.span, path)
        if isinstance(required, AdtType):
            adt = self.program.adt(required.name)
            variant_arms: list[Expr] = []
            for variant in adt.variants:
                fields: list[tuple[str, Expr]] = []
                dead = False
                for label, ft in variant.fields:
                    alts: list[Expr] = []
                    for arg in e.args:
                        try:
                            alts.append(self.expand(env, arg, ft, path))
                        except ExpandError as err:
                            log.debug(
                                "cons? argument dropped for %s.%s: %s",
                                variant.name,
                                label,
                                err.message,
                            )
                    if not alts:
                        dead = True
                        break
                    fields.append((label, self.new_choice(tuple(alts), e.span, path)))
                if dead:
                    log.debug("cons? variant %s dropped: a field has no fit", variant.name)
                    continue
                variant_arms.append(Ctor(variant.name, tuple(fields), span=e.span))
            if not variant_arms:
                raise ExpandError(
                    f"no variant of {required.name} can be built here", e.span
                )
            return self.new_choice(tuple(variant_arms), e.span, path)
        raise ExpandError(
            f"cons? requires an ADT or primitive context, got {required}", e.span
        )

    # -- calls: builtins, standard, generators, PG --------------------------------

    def expand_call(self, env: TypeEnv, e: Call, required: TypeExpr, path: _Path) -> Expr:
        local = env.lookup(e.callee)
        if isinstance(local, FunType):
            raise ExpandError(
                f"call through fun parameter {e.callee!r} survives to a context where "
                "it cannot be inlined",
                e.span,
            )
        if e.callee == "map" and self.program.function("map") is None:
            return self.expand_map(env, e, required, path)
        f = self.program.function(e.callee)
        if f is None:
            raise ExpandError(f"unknown function {e.callee!r}", e.span)
        if f.kind == STANDARD:
            if f.ret != required:
                raise ExpandError(
                    f"{e.callee!r} returns {f.ret}, required {required}", e.span
                )
            if len(e.args) != len(f.params):
                raise ExpandError(
                    f"{e.callee!r} expects {len(f.params)} arguments", e.span
                )
            args = []
            for arg, (pname, pty) in zip(e.args, f.params):
                if isinstance(pty, FunType):
                    raise ExpandError(
                        f"standard function {e.callee!r} takes a fun parameter; only "
                        "generators may",
                        e.span,
                    )
                args.append(self.expand(env, arg, pty, path))
            return Call(e.callee, tuple(args), span=e.span)
        return self.expand_generator_call(env, e, f, required, path)

    def expand_map(self, env: TypeEnv, e: Call, required: TypeExpr, path: _Path) -> Expr:
        if len(e.args) != 2:
            raise ExpandError("map takes an array and a function", e.span)
        if not isinstance(required, ArrayType):
            raise ExpandError(f"map produces an array, required {required}", e.span)
        arr_arg, fn_arg = e.args
        if not isinstance(fn_arg, FuncRef):
            raise ExpandError("map requires a named function argument", e.span)
        f = self.program.function(fn_arg.name)
        if f.kind != STANDARD or len(f.params) != 1:
            raise ExpandError(
                f"map requires a unary standard function, got {fn_arg.name!r}", e.span
            )
        if f.ret != required.elem:
            raise ExpandError(
                f"map over {fn_arg.name!r} produces {f.ret}[], required {required}",
                e.span,
            )
        elem_ty = f.params[0][1]
        arr = self.expand(env, arr_arg, ArrayType(elem_ty), path)
        if type(arr) is _Use:
            arr = _materialize(arr, 0, {}, {id(arr)}, None)
        if not isinstance(arr, ArrayLit):
            raise ExpandError("map needs a statically known array argument", e.span)
        items = tuple(Call(fn_arg.name, (item,), span=e.span) for item in arr.items)
        return ArrayLit(items, elem_ty=required.elem, span=e.span)

    def expand_generator_call(
        self, env: TypeEnv, e: Call, f: FuncDecl, required: TypeExpr, path: _Path
    ) -> Expr:
        """Instantiate the template of this call, building it on the first
        call with its key: the call's structure (spans included), the types
        of the names it uses and the required type, each record type in
        them by its field list (see `_loose`), and the inlining counters.
        Nothing else the expansion reads changes between such calls, unless
        the template is `exact`: then it serves only the exact types it was
        built at."""
        if path.count(f.name) >= self.ctx.inline_bound:
            return AlwaysFail(required, span=e.span)
        memo = self._shapes.get(id(e))
        if memo is None:
            names: list[str] = []
            memo = self._shapes[id(e)] = (e, _shape(e, names), tuple(dict.fromkeys(names)))
        _, shape, names = memo
        types = tuple([env.lookup(n) for n in names])
        variants: dict[str, int] = {}
        loose = tuple([_loose(t, variants) for t in types]), _loose(required, variants)
        key = (shape, loose, path.counters)
        entry = self._templates.get(key)
        template = entry.get((types, required)) if type(entry) is dict else entry
        if template is None:
            variables = {n: t for n, t in zip(names, types) if t is not None}
            template = self._build(env, e, f, required, path, variables, bool(variants))
            if entry is None and not template.exact:
                self._templates[key] = template
            else:
                self._templates.setdefault(key, {})[(types, required)] = template
        return self._instantiate(template, path)

    def _build(
        self, env: TypeEnv, e: Call, f: FuncDecl, required: TypeExpr, path: _Path,
        variables: dict, records: bool,
    ) -> _Template:
        """Expand the call in a frame of its own: control ids from 0,
        origin trails from the call site, and labels for fresh names.

        With `records` (a record type in the key), the template is `exact`
        when its expansion can tell the key's variants apart: when it
        renders a record type (as its required type, in its tree's types
        or in its error, where only a record renders with a brace), binds a
        switch arm (whose records may meet the key's), or uses an exact
        template.  Otherwise every key that renames its variants one-to-one
        expands the same way."""
        saved = self.points, self.size, self.bases, self.frame, self.pinned
        self._frames += 1
        self.points, self.size, self.bases, self.frame = [], 0, [], self._frames
        self.pinned = False
        tree = error = None
        try:
            tree = self._inline(env, e, f, required, _Path(path.counters))
        except ExpandError as err:
            error = err
        finally:
            points, size, bases, frame = self.points, self.size, self.bases, self.frame
            pinned = self.pinned
            self.points, self.size, self.bases, self.frame, self.pinned = saved
        exact = records and (
            pinned
            or _has_record(required)
            or (error is not None and "{" in error.message)
            or (tree is not None and any(map(_renders_record, walk(tree))))
        )
        labels = [f"#{frame}.{k}" for k in range(len(bases))]
        return _Template(tree, error, points, size, bases, labels, required, variables, exact)

    def _instantiate(self, template: _Template, path: _Path) -> Expr:
        """The template at the next control id: make its fresh names in
        the order it made them, add its control points, then give its tree
        or raise its error.  In the program's frame the instance is copied
        out down to its choices (see `_materialize`); in a template's frame
        it stays a `_Use` unless it is trivial."""
        renames = dict(zip(template.labels, [self.fresh(b) for b in template.bases]))
        offset = self.size
        if self.bases is None:
            _flatten(template.points, offset, path.trail, self.points)
            self.size = len(self.points)
        else:
            use = _Use(template, offset, renames, path.trail)
            self.points.append(use)
            self.size += template.size
        if template.exact:
            self.pinned = True
        if template.error is not None:
            err = template.error
            message = _LABEL.sub(lambda m: renames.get(m.group(0), m.group(0)), err.message)
            raise ExpandError(message, err.span, err.source)
        if self.bases is None or isinstance(template.tree, _TRIVIAL_ARG):
            return _materialize(template.tree, offset, renames, template.dynamic, False)
        return use

    def _inline(
        self, env: TypeEnv, e: Call, f: FuncDecl, required: TypeExpr, path: _Path
    ) -> Expr:
        if len(e.args) != len(f.params):
            raise ExpandError(f"{e.callee!r} expects {len(f.params)} arguments", e.span)

        if f.kind == POLYGEN:
            pairs: list[tuple[TypeExpr, TypeExpr]] = [(f.ret, required)]
            for arg, (_, pty) in zip(e.args, f.params):
                if isinstance(pty, FunType) and not isinstance(arg, FuncRef):
                    continue  # the argument becomes a generator lambda
                t = self._try_type(env, arg)
                if t is not None:
                    pairs.append((pty, t))
            try:
                subst = unify(pairs)
            except UnifyError as err:
                raise ExpandError(
                    f"cannot instantiate {f.name!r}: {err.message}", e.span
                ) from None
        else:
            subst = {}
            if f.ret != required:
                raise ExpandError(
                    f"generator {f.name!r} returns {f.ret}, required {required}", e.span
                )

        mapping: dict[str, Expr] = {}
        let_bindings: list[tuple[str, TypeExpr, Expr]] = []
        inner_env = env
        for arg, (pname, pty) in zip(e.args, f.params):
            pt = apply_subst(subst, pty)
            if isinstance(pt, FunType):
                if isinstance(arg, (FuncRef, GenLambda)):
                    mapping[pname] = arg
                else:
                    span = getattr(arg, "span", None) or e.span
                    mapping[pname] = GenLambda(arg, span=span, source=self.source)
                continue
            if not is_concrete(pt):
                raise ExpandError(
                    f"type variable encountered for parameter {pname!r} of {f.name!r} "
                    "where a concrete type is expected",
                    e.span,
                )
            expanded = self.expand(env, arg, pt, path)
            if isinstance(expanded, _TRIVIAL_ARG):
                mapping[pname] = expanded
            else:
                fresh = self.fresh(pname)
                let_bindings.append((fresh, pt, expanded))
                mapping[pname] = Var(fresh, span=e.span)
                inner_env = inner_env.bind(fresh, pt)

        ret_ty = apply_subst(subst, f.ret)
        if not is_concrete(ret_ty):
            raise ExpandError(
                f"cannot determine the concrete result type of {f.name!r}", e.span
            )
        try:
            body = self._instantiate_body(f.body, mapping, subst)
        except ExpandError as err:
            raise err.located(f.source)
        result = self.expand_in(f.source, inner_env, body, required, path.enter(f.name))
        for name, ty, value in reversed(let_bindings):
            result = Let(name, ty, value, result, span=e.span)
        return result

    def _instantiate_body(
        self, body: Expr, mapping: dict[str, Expr], subst: dict[str, TypeExpr]
    ) -> Expr:
        """Alpha-rename lets, substitute parameters, and apply the type subst.
        A generator lambda's call becomes its body, expanded as its caller's
        (see `expand`)."""

        def go(node: Expr, scope: dict[str, Expr]) -> Expr:
            if isinstance(node, Var):
                r = scope.get(node.name)
                if r is not None:
                    return r if isinstance(r, Expr) else node
                return node
            if isinstance(node, Let):
                value = go(node.value, scope)
                if node.name == "_":
                    new_name = "_"
                else:
                    new_name = self.fresh(node.name)
                inner = dict(scope)
                inner[node.name] = Var(new_name, span=node.span)
                return Let(
                    new_name,
                    apply_subst(subst, node.ty),
                    value,
                    go(node.body, inner),
                    span=node.span,
                )
            if isinstance(node, Call):
                args = tuple(go(a, scope) for a in node.args)
                r = scope.get(node.callee)
                if r is not None:
                    if isinstance(r, FuncRef):
                        return Call(r.name, args, span=node.span)
                    if isinstance(r, GenLambda):
                        if args:
                            raise ExpandError(
                                "generator lambdas take no arguments", node.span
                            )
                        self._spliced[id(r.body)] = r
                        return r.body
                    if isinstance(r, Var):
                        return Call(r.name, args, span=node.span)
                    raise ExpandError(
                        f"parameter {node.callee!r} is not callable", node.span
                    )
                return Call(node.callee, args, span=node.span)
            if isinstance(node, (Switch, FlexSwitch)):
                r = scope.get(node.scrutinee)
                scrut = node.scrutinee
                if isinstance(r, Var):
                    scrut = r.name
                elif r is not None:
                    raise ExpandError(
                        "switch scrutinee must remain a variable after inlining",
                        node.span,
                    )
                if isinstance(node, Switch):
                    return Switch(
                        scrut,
                        tuple(SwitchArm(a.variant, go(a.body, scope)) for a in node.arms),
                        span=node.span,
                    )
                return FlexSwitch(scrut, go(node.body, scope), span=node.span)
            if isinstance(node, AlwaysFail):
                return AlwaysFail(apply_subst(subst, node.ty), span=node.span)
            return rebuild(node, [go(c, scope) for c in children(node)])

        return go(body, dict(mapping))


# ---------------------------------------------------------------------------
# Entry point and validation


def expand_program(program: SurfaceProgram, ctx: ExpansionContext) -> ExpandedProgram:
    """Expand every standard function under its declared return type."""
    expander = Expander(program, ctx)
    funcs: list[FuncDecl] = []
    for f in program.functions:
        if f.kind != STANDARD:
            continue  # generators are consumed by inlining
        for pname, pty in f.params:
            if not is_concrete(pty):
                raise ExpandError(
                    f"parameter {pname!r} of {f.name!r} must have a concrete type",
                    f.span,
                    f.source,
                )
        if not (is_concrete(f.ret) or isinstance(f.ret, UnitType)):
            raise ExpandError(f"{f.name!r} must have a concrete return type", f.span, f.source)
        env = TypeEnv(program, dict(f.params))
        body = expander.expand_in(f.source, env, f.body, f.ret, _Path())
        funcs.append(replace(f, body=body))
    out = ExpandedProgram(
        SurfaceProgram(program.adts, tuple(funcs)), tuple(expander.points)
    )
    validate_expansion(out)
    return out
