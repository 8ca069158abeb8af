"""The earlier three-walk analysis of `synrec.indecomp`, kept as a test
oracle for the one-pass `classify_transformer`.

Each walk is separate and re-walks subtrees: the classifier (`_leaves_only`
re-walks every inspected operand), the rewrite of every self-call and the
walk that looks for self-calls left in the result, and the value-class
check of the decomposed translation, which walks it with parents.  Its one
known imprecision: the taint of a `let` is its value's or its body's with
the outer scope, so a `let` that shadows a tainted name, or whose tainted
value its body never reads, counts as tainted.
"""

from __future__ import annotations

from synrec.ast import (
    AdtType,
    ArrayLit,
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
    SurfaceProgram,
    Switch,
    UnOp,
    Var,
    children,
    rebuild,
    replace,
    walk,
)
from synrec.indecomp import (
    MORPHISM,
    OTHER,
    TRANSFORMER,
    ClassificationReport,
    SpecShape,
    VariantDetail,
    _reaches,
)


def classify_transformer(fn: FuncDecl, adt_name: str) -> ClassificationReport:
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
    return any(isinstance(n, Call) and n.callee == trans for n in walk(e))


def _leaves_only(body: Expr, trans: str) -> bool:
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
            return False
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
        if isinstance(e, BinOp):
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


def decompose(
    program: SurfaceProgram, shape: SpecShape, report: ClassificationReport
) -> SurfaceProgram:
    """The rewrite: every self-call of trans becomes a `BoxMake`."""
    trans = program.function(shape.trans)
    ret = trans.ret

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, Call) and e.callee == shape.trans:
            term = rewrite(e.args[0])
            gamma = rewrite(e.args[1]) if len(e.args) > 1 else None
            return BoxMake(shape.trans, term, gamma, ret, span=e.span)
        kids = children(e)
        new = [rewrite(c) for c in kids]
        if all(a is b for a, b in zip(new, kids)):
            return e
        return rebuild(e, new)

    new_trans = replace(trans, body=rewrite(trans.body))
    if report.verdict == MORPHISM:
        residual = [
            n
            for n in walk(new_trans.body)
            if isinstance(n, Call) and n.callee == shape.trans
        ]
        if residual:
            raise AssertionError("morphism decomposition left self-calls behind")
    funcs = tuple(new_trans if f.name == shape.trans else f for f in program.functions)
    return SurfaceProgram(program.adts, funcs)


def value_class_blocker(
    program: SurfaceProgram, shape: SpecShape, report: ClassificationReport
) -> str | None:
    """The value-class conditions on the decomposed `program`, each
    function (the decomposed trans included) checked by a walk."""
    if report.verdict != MORPHISM:
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


def _fields_reached_only(
    program: SurfaceProgram, fn: FuncDecl, adt_name: str, allowed
) -> str | None:
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
