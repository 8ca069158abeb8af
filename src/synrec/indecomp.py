"""Inductive decomposition: spec-shape detection, structural classification,
and the deferred-recursion rewrite.

The harness must assert interpreter equivalence of the shape
``interp_s(e[, S]) == interp_d(trans(e[, G])[, S])``; when it does, every
recursive self-call inside ``trans`` whose argument is a field of the
matched scrutinee can be replaced by a boxed placeholder.  Soundness of
the replacement needs the strictly-smaller-argument condition, which is
discharged structurally: only functions classified as recursive
transformers (or morphisms) are rewritten.  For morphisms the rewrite
removes every self-call, which is what lets the synthesizer solve the
switch arms independently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .ast import (
    AdtType,
    ArrayLit,
    ArrayType,
    Assert,
    BinOp,
    BoxMake,
    Call,
    Choice,
    Ctor,
    Expr,
    FieldAccess,
    FuncDecl,
    If,
    Index,
    Let,
    RecordType,
    STANDARD,
    SurfaceProgram,
    Switch,
    TypeExpr,
    UnOp,
    Var,
    children,
    rebuild,
    walk,
)
from .expand import ExpandedProgram

log = logging.getLogger("synrec")

TRANSFORMER = "RecursiveTransformer"
MORPHISM = "RecursiveMorphism"
OTHER = "Other"


@dataclass(frozen=True)
class SpecShape:
    """The inductive specification pattern found in a harness."""

    trans: str
    interp_s: str
    interp_d: str
    source_adt: str
    dest_adt: str
    ast_param: str  # harness parameter fed to trans
    extra_params: tuple[str, ...] = ()  # state arguments shared by both interps
    gamma_arg: Expr | None = None  # trans's extra argument, if any
    abstraction: str | None = None  # F with gamma = F(state)


@dataclass(frozen=True)
class VariantDetail:
    variant: str
    recursed_fields: tuple[str, ...]


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    details: tuple[VariantDetail, ...] = ()

    @property
    def is_morphism(self) -> bool:
        return self.verdict == MORPHISM


# ---------------------------------------------------------------------------
# Shape detection


def _collect_asserts(e: Expr) -> list[Assert]:
    return [n for n in walk(e) if isinstance(n, Assert)]


def _as_var_names(args) -> list[str] | None:
    names = []
    for a in args:
        if not isinstance(a, Var):
            return None
        names.append(a.name)
    return names


def detect_spec_shape(program: SurfaceProgram, harness: FuncDecl) -> SpecShape | None:
    """Match the harness against the inductive specification pattern.

    Returns None when the harness does not match; that silently disables
    the optimization rather than failing.
    """
    asserts = _collect_asserts(harness.body)
    eq_asserts = [a for a in asserts if isinstance(a.cond, BinOp) and a.cond.op == "=="]
    if len(eq_asserts) != 1 or len(asserts) != 1:
        return None
    cond = eq_asserts[0].cond
    for lhs, rhs in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
        shape = _match_orientation(program, harness, lhs, rhs)
        if shape is not None:
            return shape
    return None


def _match_orientation(
    program: SurfaceProgram, harness: FuncDecl, lhs: Expr, rhs: Expr
) -> SpecShape | None:
    # lhs ~ interp_s(x, S...) ; rhs ~ interp_d(trans(x [, G]), S...)
    if not (isinstance(lhs, Call) and isinstance(rhs, Call)):
        return None
    if not rhs.args or not isinstance(rhs.args[0], Call):
        return None
    trans_call = rhs.args[0]
    interp_s = program.function(lhs.callee)
    interp_d = program.function(rhs.callee)
    trans = program.function(trans_call.callee)
    if not all(
        f is not None and f.kind == STANDARD for f in (interp_s, interp_d, trans)
    ):
        return None
    if len({interp_s.name, interp_d.name, trans.name}) != 3:
        return None
    lhs_names = _as_var_names(lhs.args)
    extra_names = _as_var_names(rhs.args[1:])
    if lhs_names is None or extra_names is None or not lhs_names:
        return None
    if lhs_names[1:] != extra_names:
        return None
    if not trans_call.args or not isinstance(trans_call.args[0], Var):
        return None
    x = trans_call.args[0].name
    if lhs_names[0] != x:
        return None
    harness_params = {n for n, _ in harness.params}
    if x not in harness_params or not all(s in harness_params for s in extra_names):
        return None
    src_ty = trans.params[0][1] if trans.params else None
    if not isinstance(src_ty, AdtType) or harness.param_type(x) != src_ty:
        return None
    if not isinstance(trans.ret, AdtType):
        return None
    gamma_arg: Expr | None = None
    abstraction: str | None = None
    if len(trans_call.args) == 2:
        ann = harness.annotation("abstracts")
        if ann is None or len(ann.args) != 3:
            return None  # generalized form needs @abstracts(F, S, Gamma)
        f_name, s_name, gamma_name = ann.args
        if program.function(f_name) is None:
            return None
        if extra_names != [s_name]:
            return None
        g = trans_call.args[1]
        if not (isinstance(g, Var) and g.name == gamma_name):
            return None
        gamma_arg = g
        abstraction = f_name
    elif len(trans_call.args) != 1:
        return None
    return SpecShape(
        trans=trans.name,
        interp_s=interp_s.name,
        interp_d=interp_d.name,
        source_adt=src_ty.name,
        dest_adt=trans.ret.name,
        ast_param=x,
        extra_params=tuple(extra_names),
        gamma_arg=gamma_arg,
        abstraction=abstraction,
    )


# ---------------------------------------------------------------------------
# Structural classification


def classify_transformer(fn: FuncDecl, adt_name: str) -> ClassificationReport:
    """Classify `fn` (typically the expanded trans) against its input ADT.

    Transformer: body is a single switch on the first parameter and every
    self-call argument is a same-ADT field of the scrutinee.  Morphism:
    additionally, self-call results flow only into constructor leaves
    (array literals, selections, and choices are transparent); nothing
    inspects them.
    """
    if not fn.params:
        return ClassificationReport(OTHER)
    pname, pty = fn.params[0]
    if not (isinstance(pty, AdtType) and pty.name == adt_name):
        return ClassificationReport(OTHER)
    if not isinstance(fn.body, Switch) or fn.body.scrutinee != pname:
        return ClassificationReport(OTHER)
    details: list[VariantDetail] = []
    morphism = True
    for arm in fn.body.arms:
        recursed: list[str] = []
        for node in walk(arm.body):
            if isinstance(node, Call) and node.callee == fn.name:
                arg = node.args[0] if node.args else None
                ok = (
                    isinstance(arg, FieldAccess)
                    and isinstance(arg.base, Var)
                    and arg.base.name == pname
                )
                if not ok:
                    return ClassificationReport(OTHER)
                recursed.append(arg.label)
                for extra in node.args[1:]:
                    if _taints(extra, fn.name):
                        return ClassificationReport(OTHER)
        if not _leaves_only(arm.body, fn.name):
            morphism = False
        details.append(VariantDetail(arm.variant, tuple(recursed)))
    verdict = MORPHISM if morphism else TRANSFORMER
    return ClassificationReport(verdict, tuple(details))


def _taints(e: Expr, trans: str) -> bool:
    """Does `e` contain a self-call result?"""
    return any(isinstance(n, Call) and n.callee == trans for n in walk(e))


def _leaves_only(body: Expr, trans: str) -> bool:
    """Check that self-call results are only embedded, never inspected.

    Tainted values may flow through let bindings, array literals, array
    selection by an untainted index, choices, if/switch branches, and
    constructor fields; they may not reach conditions, operands,
    scrutinees, indices, asserts, or arguments of other calls.
    """
    tainted_vars: set[str] = set()

    def tainted(e: Expr) -> bool:
        if isinstance(e, Var):
            return e.name in tainted_vars
        if isinstance(e, Call):
            return e.callee == trans or any(tainted(a) for a in e.args)
        if isinstance(e, (ArrayLit, Choice)):
            return any(tainted(c) for c in children(e))
        if isinstance(e, Index):
            return tainted(e.base)
        if isinstance(e, If):
            return tainted(e.then) or tainted(e.els)
        if isinstance(e, Switch):
            return any(tainted(a.body) for a in e.arms)
        if isinstance(e, Ctor):
            return False  # constructor embedding makes an opaque tree
        if isinstance(e, Let):
            return tainted(e.value) or tainted(e.body)
        return False

    ok = True

    def visit(e: Expr) -> None:
        nonlocal ok
        if not ok:
            return
        if isinstance(e, Let):
            visit(e.value)
            was = e.name in tainted_vars
            if tainted(e.value):
                tainted_vars.add(e.name)
            visit(e.body)
            if not was:
                tainted_vars.discard(e.name)
            return
        if isinstance(e, Call):
            if e.callee == trans:
                for a in e.args:
                    visit(a)
                return
            for a in e.args:
                if tainted(a):
                    ok = False
                visit(a)
            return
        if isinstance(e, Index):
            if tainted(e.index):
                ok = False
            visit(e.base)
            visit(e.index)
            return
        if isinstance(e, (BinOp,)):
            if tainted(e.lhs) or tainted(e.rhs):
                ok = False
            visit(e.lhs)
            visit(e.rhs)
            return
        if isinstance(e, UnOp):
            if tainted(e.operand):
                ok = False
            visit(e.operand)
            return
        if isinstance(e, Assert):
            if tainted(e.cond):
                ok = False
            visit(e.cond)
            return
        if isinstance(e, If):
            if tainted(e.cond):
                ok = False
            visit(e.cond)
            visit(e.then)
            visit(e.els)
            return
        if isinstance(e, Switch):
            if e.scrutinee in tainted_vars:
                ok = False
            for arm in e.arms:
                visit(arm.body)
            return
        if isinstance(e, FieldAccess):
            if tainted(e.base):
                ok = False
            visit(e.base)
            return
        for c in children(e):
            visit(c)

    visit(body)
    return ok


# ---------------------------------------------------------------------------
# The rewrite


@dataclass
class Decomposition(ExpandedProgram):
    """The decomposed program (the expanded one when decomposition was
    refused), with why its candidates cannot be verified by value classes
    (None when they can)."""

    decomposed: bool
    blocker: str | None


def apply_inductive_decomposition(
    expanded: ExpandedProgram, shape: SpecShape, report: ClassificationReport
) -> Decomposition:
    """Replace self-calls in trans with boxed placeholders, and say why its
    candidates cannot be verified by value classes (None when they can).

    Refuses (returns the program unchanged) when classification is Other:
    the substitution is only sound when recursive calls shrink their
    argument, which the transformer shape guarantees.
    """
    if report.verdict == OTHER:
        reason = f"{shape.trans} is not a recursive transformer"
        log.info("inductive decomposition skipped: %s", reason)
        return Decomposition(expanded.program, expanded.control_space, False, reason)
    program = _decompose(expanded.program, shape, report)
    return Decomposition(
        program, expanded.control_space, True, value_class_blocker(program, shape, report)
    )


def _decompose(
    program: SurfaceProgram, shape: SpecShape, report: ClassificationReport
) -> SurfaceProgram:
    trans = program.function(shape.trans)
    ret = trans.ret

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, Call) and e.callee == shape.trans:
            term = rewrite(e.args[0])
            gamma = rewrite(e.args[1]) if len(e.args) > 1 else None
            return BoxMake(shape.trans, term, gamma, ret, span=e.span)
        kids = children(e)
        new = [rewrite(c) for c in kids]
        # only the paths to self-calls are rebuilt
        if all(a is b for a, b in zip(new, kids)):
            return e
        return rebuild(e, new)

    new_trans = replace(trans, body=rewrite(trans.body))
    if report.is_morphism:
        residual = [
            n
            for n in walk(new_trans.body)
            if isinstance(n, Call) and n.callee == shape.trans
        ]
        if residual:
            raise AssertionError(
                "morphism decomposition left self-calls behind"
            )
    funcs = tuple(new_trans if f.name == shape.trans else f for f in program.functions)
    return SurfaceProgram(program.adts, funcs)


def count_self_calls(fn: FuncDecl) -> int:
    return sum(1 for n in walk(fn.body) if isinstance(n, Call) and n.callee == fn.name)


# ---------------------------------------------------------------------------
# Applicability of value-class verification


def value_class_blocker(
    program: SurfaceProgram, shape: SpecShape, report: ClassificationReport
) -> str | None:
    """Why the candidates of a decomposed program cannot be verified by
    value classes, or None when they can.

    The value-class check replaces each source-typed child of an input by
    a witness that the plain program cannot tell apart from it.  That is
    sound only when the plain program observes a child solely through
    ``interp_s(child)`` and through ``interp_d(trans(child))``, so the
    syntactic conditions are: a morphism verdict and a stateless shape;
    a harness whose one parameter reaches only ``interp_s`` and ``trans``,
    with ``trans`` results fed straight to ``interp_d``; source and
    destination ADTs none of whose other fields can hold a source or
    destination value, not even inside another ADT; ``interp_s``
    and the decomposed ``trans`` reading source-typed fields only as
    ``interp_s`` self-call arguments and ``BoxMake`` terms; ``interp_d``
    reading destination-typed fields only as its own self-call arguments
    (so a box is consumed only at its entry, never by a nested switch or
    an equality).  No constructor can take a child as a field under these
    conditions, so a constructed source value is the same for every input.
    """
    if not report.is_morphism:
        return f"{shape.trans} is not a recursive morphism"
    if shape.extra_params or shape.abstraction is not None or shape.gamma_arg is not None:
        return "the shape carries interpreter state"
    harness = program.harnesses[0]
    src = AdtType(shape.source_adt)
    if harness.params != ((shape.ast_param, src),):
        return "the harness has parameters besides the source tree"
    for adt_name in (shape.source_adt, shape.dest_adt):
        for variant in program.adt(adt_name).variants:
            for label, ty in variant.fields:
                if ty == AdtType(adt_name):
                    continue
                for target in (shape.source_adt, shape.dest_adt):
                    if _reaches(program, ty, target):
                        return f"field {variant.name}.{label} nests {target} in another type"

    def boxed(parent, e):
        return isinstance(parent, BoxMake) and parent.gamma is None and parent.term is e

    def self_call(name):
        return lambda parent, e: _sole_arg(parent, e, name)

    checks = (
        (shape.interp_s, shape.source_adt, self_call(shape.interp_s)),
        (shape.trans, shape.source_adt, boxed),
        (shape.interp_d, shape.dest_adt, self_call(shape.interp_d)),
    )
    for fname, adt_name, allowed in checks:
        reason = _fields_reached_only(program, program.function(fname), adt_name, allowed)
        if reason is not None:
            return f"{fname}: {reason}"
    x = shape.ast_param
    for e, parent in _with_parents(harness.body):
        if isinstance(e, Var) and e.name == x:
            ok = _sole_arg(parent, e, shape.interp_s, shape.trans)
        elif isinstance(e, Call) and e.callee == shape.trans:
            ok = _sole_arg(parent, e, shape.interp_d)
        else:
            ok = not (isinstance(e, Let) and e.name == x)
        if not ok:
            return f"the harness uses {x} other than as interp_s({x}) and interp_d(trans({x}))"
    return None


def _with_parents(e: Expr):
    """Yield `e` and every descendant, each with its parent node."""
    stack = [(e, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        stack.extend((c, node) for c in children(node))


def _sole_arg(parent: Expr | None, e: Expr, *callees: str) -> bool:
    return (
        isinstance(parent, Call)
        and parent.callee in callees
        and len(parent.args) == 1
        and parent.args[0] is e
    )


def _reaches(program: SurfaceProgram, ty: TypeExpr, name: str) -> bool:
    """Whether a value of type `ty` can hold an ADT `name` value, through
    arrays, records and the fields of other ADTs."""
    seen: set[str] = set()
    stack = [ty]
    while stack:
        t = stack.pop()
        if isinstance(t, AdtType):
            if t.name == name:
                return True
            if t.name not in seen:
                seen.add(t.name)
                stack.extend(ft for v in program.adt(t.name).variants for _, ft in v.fields)
        elif isinstance(t, ArrayType):
            stack.append(t.elem)
        elif isinstance(t, RecordType):
            stack.extend(ft for _, ft in t.fields)
    return False


def _fields_reached_only(
    program: SurfaceProgram, fn: FuncDecl, adt_name: str, allowed
) -> str | None:
    """Check that `fn` observes its one parameter only by switching on it
    and reading its fields, and reads every `adt_name`-typed field only
    where `allowed(parent, access)` holds."""
    if len(fn.params) != 1 or fn.params[0][1] != AdtType(adt_name):
        return f"expected one {adt_name} parameter"
    p = fn.params[0][0]
    rec_labels = {
        label
        for v in program.adt(adt_name).variants
        for label, ty in v.fields
        if ty == AdtType(adt_name)
    }
    for e, parent in _with_parents(fn.body):
        if isinstance(e, Var) and e.name == p and not (
            isinstance(parent, FieldAccess) and parent.base is e
        ):
            return f"{p} is used whole"
        if (
            isinstance(e, FieldAccess)
            and isinstance(e.base, Var)
            and e.base.name == p
            and e.label in rec_labels
            and not allowed(parent, e)
        ):
            return f"field {p}.{e.label} is read outside a recursive position"
        if isinstance(e, Let) and e.name == p:
            return f"{p} is rebound"
    return None
