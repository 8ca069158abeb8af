"""Typing judgement, substitutions, and first-order unification.

`type_of` implements the bottom-up judgement over the kernel language;
switch arms recheck the scrutinee at the matched variant's record type.
`unify` is plain syntactic first-order unification with an occurs check;
the opaque `fun` type unifies with any arrow (or `fun`) without binding
anything, which is how fun-typed generator parameters pick up concrete
types during inlining.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    BIT,
    INT,
    UNIT,
    AdtDecl,
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
    RecordType,
    STANDARD,
    SurfaceProgram,
    Switch,
    TypeExpr,
    TypeVarRef,
    UnitLit,
    UnknownCtor,
    UnOp,
    Var,
)
from .errors import TypeCheckError, UnifyError

ARITH_OPS = ("+", "-", "*")
REL_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
BOOL_OPS = ("&&", "||")


class TypeEnv:
    """Persistent map from names to types, carrying the program's tables.

    Extension returns a new environment; lookups find the innermost
    binding, so rebinding a scrutinee inside a match arm never escapes it.
    """

    __slots__ = ("program", "_bindings")

    def __init__(self, program: SurfaceProgram, _bindings: dict[str, TypeExpr] | None = None):
        self.program = program
        self._bindings = _bindings or {}

    def bind(self, name: str, ty: TypeExpr) -> "TypeEnv":
        new = dict(self._bindings)
        new[name] = ty
        return TypeEnv(self.program, new)

    def lookup(self, name: str) -> TypeExpr | None:
        return self._bindings.get(name)


def signature_type(f: FuncDecl) -> ArrowType:
    return ArrowType(tuple(t for _, t in f.params), f.ret)


def is_concrete(t: TypeExpr) -> bool:
    """True iff `t` contains no type variables and no function types."""
    if isinstance(t, (TypeVarRef, FunType, ArrowType)):
        return False
    if isinstance(t, ArrayType):
        return is_concrete(t.elem)
    if isinstance(t, RecordType):
        return all(is_concrete(ft) for _, ft in t.fields)
    return True


# ---------------------------------------------------------------------------
# Substitution and unification


@dataclass(frozen=True)
class Substitution:
    mapping: tuple[tuple[str, TypeExpr], ...]

    @staticmethod
    def of(d: dict[str, TypeExpr]) -> "Substitution":
        return Substitution(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, TypeExpr]:
        return dict(self.mapping)

    def get(self, name: str) -> TypeExpr | None:
        for k, v in self.mapping:
            if k == name:
                return v
        return None


EMPTY_SUBST = Substitution(())


def apply_subst(s: Substitution, t: TypeExpr) -> TypeExpr:
    """Simultaneous substitution of type variables."""
    if isinstance(t, TypeVarRef):
        r = s.get(t.name)
        return t if r is None else r
    if isinstance(t, ArrayType):
        return ArrayType(apply_subst(s, t.elem))
    if isinstance(t, ArrowType):
        return ArrowType(tuple(apply_subst(s, p) for p in t.params), apply_subst(s, t.ret))
    if isinstance(t, RecordType):
        return RecordType(t.variant, tuple((l, apply_subst(s, ft)) for l, ft in t.fields))
    return t


def _occurs(name: str, t: TypeExpr) -> bool:
    if isinstance(t, TypeVarRef):
        return t.name == name
    if isinstance(t, ArrayType):
        return _occurs(name, t.elem)
    if isinstance(t, ArrowType):
        return any(_occurs(name, p) for p in t.params) or _occurs(name, t.ret)
    if isinstance(t, RecordType):
        return any(_occurs(name, ft) for _, ft in t.fields)
    return False


def unify(pairs: list[tuple[TypeExpr, TypeExpr]]) -> Substitution:
    """Most general unifier of all pairs, or UnifyError.

    `fun` unifies with `fun` or any arrow without producing bindings;
    concrete/concrete pairs must be structurally equal.
    """
    subst: dict[str, TypeExpr] = {}
    work = list(pairs)

    def sub1(t: TypeExpr) -> TypeExpr:
        return apply_subst(Substitution.of(subst), t)

    while work:
        a, b = work.pop()
        a, b = sub1(a), sub1(b)
        if a == b:
            continue
        if isinstance(a, TypeVarRef) or isinstance(b, TypeVarRef):
            if not isinstance(a, TypeVarRef):
                a, b = b, a
            if _occurs(a.name, b):
                raise UnifyError(f"occurs check: {a} in {b}")
            binding = Substitution.of({a.name: b})
            subst = {k: apply_subst(binding, v) for k, v in subst.items()}
            subst[a.name] = b
            continue
        if isinstance(a, FunType) or isinstance(b, FunType):
            other = b if isinstance(a, FunType) else a
            if isinstance(other, (FunType, ArrowType)):
                continue
            raise UnifyError(f"fun unifies only with a function type, not {other}")
        if isinstance(a, ArrayType) and isinstance(b, ArrayType):
            work.append((a.elem, b.elem))
            continue
        if isinstance(a, ArrowType) and isinstance(b, ArrowType):
            if len(a.params) != len(b.params):
                raise UnifyError(f"arity mismatch: {a} vs {b}")
            work.extend(zip(a.params, b.params))
            work.append((a.ret, b.ret))
            continue
        if isinstance(a, RecordType) and isinstance(b, RecordType):
            la = {l for l, _ in a.fields}
            lb = {l for l, _ in b.fields}
            if la != lb:
                raise UnifyError(f"record label mismatch: {a} vs {b}")
            db = dict(b.fields)
            work.extend((ft, db[l]) for l, ft in a.fields)
            continue
        raise UnifyError(f"cannot unify {a} with {b}")
    return Substitution.of(subst)


# ---------------------------------------------------------------------------
# Typing judgement


def _adt_of(env: TypeEnv, name: str, span) -> AdtDecl:
    adt = env.program.adt(name)
    if adt is None:
        raise TypeCheckError(f"unknown ADT {name!r}", span)
    return adt


def _switch_parts(env: TypeEnv, e: Switch) -> tuple[AdtDecl, TypeExpr]:
    st = env.lookup(e.scrutinee)
    if st is None:
        raise TypeCheckError(f"unbound switch scrutinee {e.scrutinee!r}", e.span)
    if not isinstance(st, AdtType):
        raise TypeCheckError(f"switch scrutinee has non-ADT type {st}", e.span)
    adt = _adt_of(env, st.name, e.span)
    declared = [v.name for v in adt.variants]
    listed = [a.variant for a in e.arms]
    if sorted(declared) != sorted(listed):
        raise TypeCheckError(
            f"switch on {adt.name} must cover exactly {declared}, got {listed}", e.span
        )
    return adt, st


_PSC = (FieldsOf, FlexSwitch, UnknownCtor, GenLambda)


class Typer:
    """The typing judgement, dispatched on each node's exact type (no node
    class is subclassed).  The rules for holes, choices, calls and
    synthesis constructs are methods, so that a subclass can extend them,
    as the expander's postcondition check does."""

    def check(self, env: TypeEnv, e: Expr, expected: TypeExpr) -> None:
        """Check `e` against `expected`, pushing the expectation structurally.

        Integer literals 0/1 are accepted at `bit` here; everything else
        bottoms out in `type_of` equality.
        """
        t = type(e)
        if t is IntLit:
            if expected == BIT:
                if e.value in (0, 1):
                    return
                raise TypeCheckError(f"literal {e.value} is not a bit", e.span)
            if expected == INT:
                return
            raise TypeCheckError(f"integer literal where {expected} expected", e.span)
        if t is ArrayLit and isinstance(expected, ArrayType):
            for item in e.items:
                self.check(env, item, expected.elem)
            return
        if t is Choice:
            self.check_choice(env, e, expected)
            return
        if t is If:
            self.check(env, e.cond, BIT)
            self.check(env, e.then, expected)
            self.check(env, e.els, expected)
            return
        if t is Let:
            self.check(env, e.value, e.ty)
            self.check(env.bind(e.name, e.ty), e.body, expected)
            return
        if t is Switch:
            adt, _ = _switch_parts(env, e)
            for arm in e.arms:
                variant = adt.variant(arm.variant)
                self.check(env.bind(e.scrutinee, variant.record_type()), arm.body, expected)
            return
        if t is AlwaysFail:
            return  # never produces a value; inhabits any type
        found = self.type_of(env, e)
        if found != expected:
            raise TypeCheckError(
                f"expected {expected}, found {found}", getattr(e, "span", None)
            )

    def check_choice(self, env: TypeEnv, e: Choice, expected: TypeExpr) -> None:
        for arm in e.arms:
            self.check(env, arm, expected)

    def type_of(self, env: TypeEnv, e: Expr) -> TypeExpr:
        """The unique type of `e` under `env`; raises TypeCheckError otherwise.

        Precondition: `e` contains no polymorphic synthesis constructs.
        """
        t = type(e)
        if t is Var:
            found = env.lookup(e.name)
            if found is None:
                raise TypeCheckError(f"unbound variable {e.name!r}", e.span)
            return found
        if t is FuncRef:
            f = env.program.function(e.name)
            if f is None:
                raise TypeCheckError(f"unknown function {e.name!r}", e.span)
            if f.kind != STANDARD:
                raise TypeCheckError(
                    f"generator {e.name!r} has no bottom-up type", e.span
                )
            return signature_type(f)
        if t is IntLit:
            return INT
        if t is UnitLit:
            return UNIT
        if t is Let:
            self.check(env, e.value, e.ty)
            return self.type_of(env.bind(e.name, e.ty), e.body)
        if t is Call:
            return self.type_call(env, e)
        if t is Switch:
            adt, _ = _switch_parts(env, e)
            result: TypeExpr | None = None
            for arm in e.arms:
                variant = adt.variant(arm.variant)
                arm_ty = self.type_of(env.bind(e.scrutinee, variant.record_type()), arm.body)
                if result is None:
                    result = arm_ty
                elif result != arm_ty:
                    raise TypeCheckError(f"switch arms disagree: {result} vs {arm_ty}", e.span)
            return result
        if t is FieldAccess:
            bt = self.type_of(env, e.base)
            if isinstance(bt, RecordType):
                ft = bt.field_type(e.label)
                if ft is None:
                    raise TypeCheckError(f"no field {e.label!r} in {bt}", e.span)
                return ft
            raise TypeCheckError(f"field access on non-record type {bt}", e.span)
        if t is Ctor:
            owner = env.program.variant_owner(e.variant)
            if owner is None:
                raise TypeCheckError(f"unknown variant {e.variant!r}", e.span)
            decl = owner.variant(e.variant)
            declared = dict(decl.fields)
            if set(declared) != {l for l, _ in e.fields}:
                raise TypeCheckError(f"constructor {e.variant!r} field mismatch", e.span)
            for label, value in e.fields:
                self.check(env, value, declared[label])
            return AdtType(owner.name)
        if t is ArrayLit:
            if not e.items:
                if e.elem_ty is None:
                    raise TypeCheckError("cannot type an empty array literal", e.span)
                return ArrayType(e.elem_ty)
            t0 = self.type_of(env, e.items[0])
            for item in e.items[1:]:
                self.check(env, item, t0)
            return ArrayType(t0)
        if t is Index:
            bt = self.type_of(env, e.base)
            if not isinstance(bt, ArrayType):
                raise TypeCheckError(f"indexing non-array type {bt}", e.span)
            self.check(env, e.index, INT)
            return bt.elem
        if t is Assert:
            self.check(env, e.cond, BIT)
            return UNIT
        if t is BinOp:
            return self._type_binop(env, e)
        if t is UnOp:
            self.check(env, e.operand, BIT)
            return BIT
        if t is If:
            self.check(env, e.cond, BIT)
            then = self.type_of(env, e.then)
            self.check(env, e.els, then)
            return then
        if t is Hole:
            return self.type_hole(env, e)
        if t is Choice:
            return self.type_choice(env, e)
        if t is AlwaysFail or t is BoxMake:
            return e.ty
        if t in _PSC:
            return self.type_psc(env, e)
        if hasattr(e, "unfold"):
            return self.type_deferred(env, e)
        raise TypeCheckError(f"cannot type node {t.__name__}", getattr(e, "span", None))

    def _type_binop(self, env: TypeEnv, e: BinOp) -> TypeExpr:
        if e.op in ARITH_OPS:
            self.check(env, e.lhs, INT)
            self.check(env, e.rhs, INT)
            return INT
        if e.op in REL_OPS:
            self.check(env, e.lhs, INT)
            self.check(env, e.rhs, INT)
            return BIT
        if e.op in BOOL_OPS:
            self.check(env, e.lhs, BIT)
            self.check(env, e.rhs, BIT)
            return BIT
        if e.op in EQ_OPS:
            lt = self.try_type(env, e.lhs)
            rt = self.try_type(env, e.rhs)
            if lt is None and rt is None:
                raise TypeCheckError("cannot infer operand types for equality", e.span)
            if lt is None:
                self.check(env, e.lhs, rt)
                lt = rt
            elif rt is None:
                self.check(env, e.rhs, lt)
            elif lt != rt:
                if not _lit_compatible(e.lhs, e.rhs, lt, rt, env):
                    raise TypeCheckError(f"comparing {lt} with {rt}", e.span)
            return BIT
        raise TypeCheckError(f"unknown operator {e.op!r}", e.span)

    def try_type(self, env: TypeEnv, e: Expr) -> TypeExpr | None:
        try:
            return self.type_of(env, e)
        except TypeCheckError:
            return None

    def type_call(self, env: TypeEnv, e: Call) -> TypeExpr:
        local = env.lookup(e.callee)
        if local is not None:
            raise TypeCheckError(
                f"call through fun-typed parameter {e.callee!r} has no bottom-up type",
                e.span,
            )
        f = env.program.function(e.callee)
        if f is None:
            raise TypeCheckError(f"unknown function {e.callee!r}", e.span)
        if f.kind != STANDARD:
            raise TypeCheckError(f"generator call {e.callee!r} has no bottom-up type", e.span)
        if len(e.args) != len(f.params):
            raise TypeCheckError(
                f"{e.callee!r} expects {len(f.params)} arguments, got {len(e.args)}", e.span
            )
        for arg, (_, pt) in zip(e.args, f.params):
            if isinstance(pt, FunType):
                at = self.type_of(env, arg)
                if not isinstance(at, (ArrowType, FunType)):
                    raise TypeCheckError(f"expected a function argument, found {at}", e.span)
            else:
                self.check(env, arg, pt)
        return f.ret

    def type_hole(self, env: TypeEnv, e: Hole) -> TypeExpr:
        if e.ty is None:
            raise TypeCheckError("unexpanded hole has no type", e.span)
        return e.ty

    def type_choice(self, env: TypeEnv, e: Choice) -> TypeExpr:
        t0 = self.type_of(env, e.arms[0])
        for arm in e.arms[1:]:
            self.check(env, arm, t0)
        return t0

    def type_deferred(self, env: TypeEnv, e: Expr) -> TypeExpr:
        """A node that stands for a tree its `unfold` makes on demand (a
        template instance, see `expand`): it has the type it was expanded
        at, and its tree is checked when the expansion is validated."""
        return e.ty

    def type_psc(self, env: TypeEnv, e: Expr) -> TypeExpr:
        raise TypeCheckError(
            f"{type(e).__name__} is a synthesis construct with no bottom-up type",
            getattr(e, "span", None),
        )


def _lit_compatible(lhs, rhs, lt, rt, env) -> bool:
    """== between an int literal and a bit value (or vice versa) is fine."""
    if isinstance(lhs, IntLit) and rt == BIT and lhs.value in (0, 1):
        return True
    if isinstance(rhs, IntLit) and lt == BIT and rhs.value in (0, 1):
        return True
    return False


_TYPER = Typer()
check_type = _TYPER.check
type_of = _TYPER.type_of


def typecheck_function(program: SurfaceProgram, f: FuncDecl) -> None:
    """Check a PSC-free standard function body against its signature."""
    env = TypeEnv(program)
    for name, ty in f.params:
        env = env.bind(name, ty)
    check_type(env, f.body, f.ret)


def typecheck_program(program: SurfaceProgram) -> None:
    for f in program.functions:
        if f.kind == STANDARD:
            typecheck_function(program, f)
