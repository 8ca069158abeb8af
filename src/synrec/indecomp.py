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

`classify_transformer` analyses the translation in one post-order pass.
Each node passes up whether its value can carry a self-call result (a
`let` name carries its value's taint in its scope) and whether a
self-call lies below it; an inspecting parent of a carrying child makes
the verdict a transformer.  The pass also records which fields each arm
recurses on, the nodes on paths to self-calls, and how the body uses its
parameter otherwise (`TransFacts`).  The rewrite rebuilds only those
paths, and `value_class_blocker` reads the parameter uses instead of
walking the decomposed translation.
"""

from __future__ import annotations

import logging

from .ast import (
    AdtType,
    ArrayLit,
    ArrayType,
    Assert,
    BinOp,
    BoxMake,
    Call,
    Choice,
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
    field,
    rebuild,
    record,
    replace,
)
from .expand import ExpandedProgram
from .instances import _Use, force

log = logging.getLogger("synrec")

TRANSFORMER = "RecursiveTransformer"
MORPHISM = "RecursiveMorphism"
OTHER = "Other"


@record(frozen=True)
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


@record(frozen=True)
class VariantDetail:
    variant: str
    recursed_fields: tuple[str, ...]


@record(frozen=True)
class ClassificationReport:
    verdict: str
    details: tuple[VariantDetail, ...] = ()
    facts: TransFacts | None = field(default=None, compare=False, repr=False)

    @property
    def is_morphism(self) -> bool:
        return self.verdict == MORPHISM


# ---------------------------------------------------------------------------
# Shape detection


def _collect_asserts(e: Expr) -> list[Assert]:
    return [n for n, _ in _with_parents(e) if isinstance(n, Assert)]


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

# the flags each node of the translation's body passes to its parent
_TAINT = 1  # its value can carry a self-call result
_CALL = 2  # a self-call lies at or below it

# how the translation uses its parameter (`TransFacts.param_uses`)
_WHOLE = "whole"  # as a value, not as the base of a field read
_REBOUND = "rebound"  # as the name of a `let`
_FIELD = "field"  # a field read, other than as the sole self-call argument


@record(frozen=True)
class TransFacts:
    """What `classify_transformer`'s pass found in a translation's body,
    for the rewrite and for `value_class_blocker`."""

    body: Expr  # the body that the node ids belong to
    on_path: frozenset[int]  # ids of the nodes at or above a self-call
    # (kind, field label) in post-order: the last one is the first that a
    # walk from the root, last child first, meets
    param_uses: tuple[tuple[str, str], ...]


class _NotTransformer(Exception):
    pass


def classify_transformer(fn: FuncDecl, adt_name: str) -> ClassificationReport:
    """Classify `fn` (typically the expanded trans) against its input ADT,
    in one post-order pass over its body.

    Transformer: body is a single switch on the first parameter, every
    self-call argument is a same-ADT field of the scrutinee, and no other
    self-call argument holds a self-call.  Morphism: additionally,
    self-call results flow only into constructor leaves (`let` names,
    array literals, selections, choices and branches pass them on) and
    nothing inspects them: no condition, operand, index, scrutinee, field
    base or argument of another call.  The report's `facts` hold what the
    rewrite and `value_class_blocker` need.
    """
    if not fn.params:
        return ClassificationReport(OTHER)
    p, pty = fn.params[0]
    if not (isinstance(pty, AdtType) and pty.name == adt_name):
        return ClassificationReport(OTHER)
    if not isinstance(fn.body, Switch) or fn.body.scrutinee != p:
        return ClassificationReport(OTHER)
    tainted: set[str] = set()  # `let` names in scope whose value has _TAINT
    on_path: set[int] = set()
    uses: list[tuple[str, str]] = []
    recursed: list[str] = []
    inspected = False  # a self-call result reaches an inspecting position
    # (template, its tainted variables) -> what a visit of its tree found
    seen: dict[tuple, tuple] = {}
    frames = 0  # how many template trees the visit is in

    def look(flags: int) -> int:
        nonlocal inspected
        if flags & _TAINT:
            inspected = True
        return flags & _CALL

    def visit_use(e: _Use) -> int:
        """An instance that stays a `_Use`: its template's tree is visited
        once for each set of tainted variables of its key, in terms of its
        own names (a label is never `p` or `fn.name`), and the finds are
        replayed for every further instance."""
        nonlocal tainted, inspected, frames
        tpl = e.template
        inner = frozenset([n for n in tpl.env if e.names.get(n, n) in tainted])
        found = seen.get((tpl, inner))
        if found is None:
            saved = tainted, inspected, len(uses), len(recursed)
            tainted, inspected = set(inner), False
            frames += 1
            try:
                flags = visit(tpl.tree)
            finally:
                frames -= 1
                tainted = saved[0]
            found = seen[tpl, inner] = (
                flags, inspected, tuple(uses[saved[2]:]), tuple(recursed[saved[3]:])
            )
            inspected = saved[1]
            del uses[saved[2]:], recursed[saved[3]:]
        flags, was_inspected, more_uses, more_recursed = found
        inspected = inspected or was_inspected
        uses.extend(more_uses)
        recursed.extend(more_recursed)
        return flags

    def visit(e: Expr) -> int:
        t = type(e)
        if t is _Use:
            flags = visit_use(e)
        elif t is Var:
            if e.name == p:
                uses.append((_WHOLE, ""))
            return _TAINT if e.name in tainted else 0
        elif t is FieldAccess and type(e.base) is Var and e.base.name == p:
            uses.append((_FIELD, e.label))
            return look(_TAINT if p in tainted else 0)
        elif t is Call and e.callee == fn.name:
            arg = e.args[0] if e.args else None
            if not (type(arg) is FieldAccess and type(arg.base) is Var and arg.base.name == p):
                raise _NotTransformer
            recursed.append(arg.label)
            if len(e.args) == 1:  # a field read in the recursive position
                look(_TAINT if p in tainted else 0)
            elif any(visit(a) & _CALL for a in e.args):
                raise _NotTransformer
            flags = _TAINT | _CALL
        elif t is Let:
            value, was = visit(e.value), e.name in tainted
            (tainted.add if value & _TAINT else tainted.discard)(e.name)
            flags = visit(e.body) | (value & _CALL)
            (tainted.add if was else tainted.discard)(e.name)
            if e.name == p:
                uses.append((_REBOUND, ""))
        elif t is Index:
            flags = visit(e.base) | look(visit(e.index))
        elif t is If:
            flags = look(visit(e.cond)) | visit(e.then) | visit(e.els)
        elif t is Switch:
            look(_TAINT if e.scrutinee in tainted else 0)
            flags = 0
            for arm in e.arms:
                flags |= visit(arm.body)
        else:
            flags = 0
            for c in children(e):
                flags |= visit(c)
            if t is FieldAccess or t is Call or t is BinOp or t is UnOp or t is Assert:
                look(flags)  # a field base, another call's argument, an operand
            if not (t is ArrayLit or t is Choice):
                flags &= _CALL  # e.g. a constructor's tree is opaque
        if flags & _CALL and not frames:
            on_path.add(id(e))
        return flags

    details: list[VariantDetail] = []
    try:
        for arm in fn.body.arms:
            visit(arm.body)
            details.append(VariantDetail(arm.variant, tuple(recursed)))
            recursed.clear()
    except _NotTransformer:
        return ClassificationReport(OTHER)
    if on_path:
        on_path.add(id(fn.body))
    facts = TransFacts(fn.body, frozenset(on_path), tuple(uses))
    return ClassificationReport(TRANSFORMER if inspected else MORPHISM, tuple(details), facts)


# ---------------------------------------------------------------------------
# The rewrite


@record
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
    """Rebuild the nodes on the recorded paths to self-calls, each
    self-call a `BoxMake`; every other node stays the expansion's own."""
    trans, facts = program.function(shape.trans), report.facts
    if facts is None or facts.body is not trans.body:
        raise ValueError(f"the report does not classify this program's {shape.trans}")
    ret, on_path, boxed = trans.ret, facts.on_path, 0

    def rewrite(e: Expr, inside: bool = False) -> Expr:
        nonlocal boxed
        if type(e) is Call and e.callee == shape.trans:
            boxed += 1
            gamma = e.args[1] if len(e.args) > 1 else None
            return BoxMake(shape.trans, e.args[0], gamma, ret, span=e.span)
        if not inside and id(e) not in on_path:
            return e
        if type(e) is _Use:  # an instance with a self-call: copied out in full
            return rewrite(force(e), True)
        return rebuild(e, [rewrite(c, inside) for c in children(e)])

    new_trans = replace(trans, body=rewrite(trans.body))
    if boxed != sum(len(d.recursed_fields) for d in report.details):
        raise AssertionError("decomposition left self-calls behind")
    funcs = tuple(new_trans if f.name == shape.trans else f for f in program.functions)
    return SurfaceProgram(program.adts, funcs)


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

    for fname, adt_name in (
        (shape.interp_s, shape.source_adt),
        (shape.trans, shape.source_adt),
        (shape.interp_d, shape.dest_adt),
    ):
        fn = program.function(fname)
        if len(fn.params) != 1 or fn.params[0][1] != AdtType(adt_name):
            return f"{fname}: expected one {adt_name} parameter"
        # the decomposed trans reads a field as a `BoxMake` term where the
        # classified one read it as the sole argument of a self-call
        uses = report.facts.param_uses if fname == shape.trans else _param_uses(fn)
        reason = _read_outside_recursion(program, fn.params[0][0], adt_name, uses)
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
    """Yield `e` and every descendant, each with its parent node; an
    instance that stays a `_Use` is seen as its tree (`_Use.unfold`)."""
    stack = [(e, None)]
    while stack:
        node, parent = stack.pop()
        if type(node) is _Use:
            node = node.unfold()
        yield node, parent
        stack.extend((c, node) for c in children(node))


def _sole_arg(parent: Expr | None, e: Expr, *callees: str) -> bool:
    if not (isinstance(parent, Call) and parent.callee in callees and len(parent.args) == 1):
        return False
    arg = parent.args[0]
    return arg is e or (type(arg) is _Use and arg.unfold() is e)


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


def _param_uses(fn: FuncDecl) -> list[tuple[str, str]]:
    """How `fn` uses its one parameter, as in `TransFacts.param_uses`: the
    sole argument of a self-call is the recursive position."""
    p = fn.params[0][0]
    uses: list[tuple[str, str]] = []

    def visit(e: Expr, sole: bool = False) -> None:
        if type(e) is _Use:
            return visit(e.unfold(), sole)
        if type(e) is FieldAccess and type(e.base) is Var and e.base.name == p:
            if not sole:
                uses.append((_FIELD, e.label))
            return
        if type(e) is Call and e.callee == fn.name and len(e.args) == 1:
            visit(e.args[0], True)
            return
        for c in children(e):
            visit(c)
        if type(e) is Var and e.name == p:
            uses.append((_WHOLE, ""))
        elif type(e) is Let and e.name == p:
            uses.append((_REBOUND, ""))

    visit(fn.body)
    return uses


def _read_outside_recursion(
    program: SurfaceProgram, p: str, adt_name: str, uses: tuple | list
) -> str | None:
    """The first of `uses` (the last in post-order) that reads parameter
    `p` other than by switching on it and reading its non-`adt_name`
    fields, or reading its `adt_name` fields in a recursive position."""
    rec_labels = {
        label
        for v in program.adt(adt_name).variants
        for label, ty in v.fields
        if ty == AdtType(adt_name)
    }
    for kind, label in reversed(uses):
        if kind == _WHOLE:
            return f"{p} is used whole"
        if kind == _REBOUND:
            return f"{p} is rebound"
        if label in rec_labels:
            return f"field {p}.{label} is read outside a recursive position"
    return None
