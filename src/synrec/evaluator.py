"""Reference evaluator for expanded programs: the oracle of the compiled
executor (see `compiled`).  The property tests check the compiled search
and check against it, and `run_cegis` re-runs every counterexample on it.

Executes a harness under an input binding and a control assignment, with
per-function recursion-depth limits, the one resource bound it shares
with the compiled code.  Runtime values are plain Python data: ints
(64-bit wrapping, bits as 0/1), `VRecord` for tagged records, tuples for
arrays, `None` for unit, and `VBoxed` for the deferred-recursion
placeholder of inductive decomposition.

Boxed placeholders follow the decomposition rewrite: a call to the
destination interpreter whose AST argument is boxed becomes a source
interpreter call (guarded by the abstraction check in the generalized
form); in any other consuming context the deferred call is forced.

Evaluation order is textual left-to-right; `&&`/`||` short-circuit; the
reported outcome is the first assertion failure.  Evaluation is a pure
function of (program, controls, input, limits), so any number of
evaluations may run concurrently over immutable inputs.
"""

from __future__ import annotations

import sys

from .ast import (
    AlwaysFail,
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
    FuncRef,
    Hole,
    If,
    Index,
    IntLit,
    Let,
    STANDARD,
    SurfaceProgram,
    Switch,
    UnitLit,
    UnOp,
    Var,
    record,
)
from .errors import InternalError

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def wrap64(x: int) -> int:
    x &= _MASK
    return x - (1 << 64) if x & _SIGN else x


class VRecord:
    __slots__ = ("variant", "fields")

    def __init__(self, variant: str, fields: dict):
        self.variant = variant
        self.fields = fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} = {v!r}" for k, v in self.fields.items())
        return f"{self.variant}({inner})"


class VBoxed:
    __slots__ = ("term", "gamma")

    def __init__(self, term, gamma=None):
        self.term = term
        self.gamma = gamma

    def __repr__(self) -> str:
        if self.gamma is None:
            return f"<boxed {self.term!r}>"
        return f"<boxed {self.term!r}, {self.gamma!r}>"


def format_value(v) -> str:
    """Stable rendering of runtime values for counterexample reports."""
    if isinstance(v, VRecord):
        inner = ", ".join(f"{k} = {format_value(x)}" for k, x in v.fields.items())
        return f"{v.variant}({inner})"
    if isinstance(v, tuple):
        return "{" + ", ".join(format_value(x) for x in v) + "}"
    if v is None:
        return "()"
    return str(v)


@record(frozen=True)
class EvalLimits:
    max_depth: int = 5

    def __post_init__(self):
        if self.max_depth <= 0:
            raise ValueError("evaluation limits must be positive")


PASS = "pass"
ASSERT_FAILED = "assert_failed"
INFEASIBLE = "infeasible"
RESOURCE = "resource"


@record(frozen=True)
class Outcome:
    kind: str
    assert_id: int = -1
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.kind == PASS

    def __str__(self) -> str:
        if self.kind == ASSERT_FAILED:
            return f"assertion #{self.assert_id} failed"
        if self.kind == PASS:
            return "pass"
        return f"{self.kind}: {self.detail}"


OUTCOME_PASS = Outcome(PASS)


class _AssertFail(Exception):
    def __init__(self, aid: int):
        self.aid = aid


class _Infeasible(Exception):
    def __init__(self, detail: str):
        self.detail = detail


class _Exhausted(Exception):
    def __init__(self, which: str):
        self.which = which


class _Ctx:
    __slots__ = (
        "functable",
        "controls",
        "limits",
        "decomp",
        "depths",
    )

    def __init__(self, program: SurfaceProgram, controls, limits: EvalLimits, decomp):
        self.functable = {f.name: f for f in program.functions}
        self.controls = controls
        self.limits = limits
        self.decomp = decomp
        self.depths: dict[str, int] = {}


def _force(ctx: _Ctx, v):
    """Evaluate the deferred call carried by a boxed placeholder."""
    while isinstance(v, VBoxed):
        args = (v.term,) if v.gamma is None else (v.term, v.gamma)
        v = _call(ctx, ctx.decomp.trans, args)
    return v


def _call(ctx: _Ctx, name: str, args: tuple):
    f = ctx.functable.get(name)
    if f is None or f.kind != STANDARD:
        raise InternalError(f"call to unknown or non-standard function {name!r}")
    if len(args) != len(f.params):
        raise InternalError(f"arity mismatch calling {name!r}")
    decomp = ctx.decomp
    if decomp is not None and name == decomp.interp_d and args:
        first = args[0]
        if isinstance(first, VBoxed):
            extra = args[1:]
            if first.gamma is None:
                return _call(ctx, decomp.interp_s, (first.term,) + extra)
            gamma_val = _call(ctx, decomp.abstraction, extra)
            if values_equal(gamma_val, first.gamma, ctx):
                return _call(ctx, decomp.interp_s, (first.term,) + extra)
            forced = _call(ctx, decomp.trans, (first.term, first.gamma))
            args = (forced,) + extra
    depth = ctx.depths.get(name, 0)
    if depth >= ctx.limits.max_depth:
        raise _Exhausted(f"recursion depth of {name!r}")
    ctx.depths[name] = depth + 1
    env = {p[0]: a for p, a in zip(f.params, args)}
    result = eval_expr_ctx(ctx, env, f.body)
    ctx.depths[name] = depth
    return result


_MISSING = object()


def eval_expr_ctx(ctx: _Ctx, env: dict, e: Expr):
    t = type(e)
    if t is Var:
        return env[e.name]
    if t is IntLit:
        return e.value
    if t is Let:
        value = eval_expr_ctx(ctx, env, e.value)
        old = env.get(e.name, _MISSING)
        env[e.name] = value
        result = eval_expr_ctx(ctx, env, e.body)
        if old is _MISSING:
            del env[e.name]
        else:
            env[e.name] = old
        return result
    if t is Call:
        args = tuple(eval_expr_ctx(ctx, env, a) for a in e.args)
        return _call(ctx, e.callee, args)
    if t is Switch:
        v = env[e.scrutinee]
        if isinstance(v, VBoxed):
            v = _force(ctx, v)
        if not isinstance(v, VRecord):
            raise InternalError(f"switch on non-record value {v!r}")
        for arm in e.arms:
            if arm.variant == v.variant:
                old = env[e.scrutinee]
                env[e.scrutinee] = v
                result = eval_expr_ctx(ctx, env, arm.body)
                env[e.scrutinee] = old
                return result
        raise InternalError(f"no switch arm for variant {v.variant!r}")
    if t is FieldAccess:
        v = eval_expr_ctx(ctx, env, e.base)
        if isinstance(v, VBoxed):
            v = _force(ctx, v)
        if not isinstance(v, VRecord):
            raise InternalError(f"field access on non-record value {v!r}")
        return v.fields[e.label]
    if t is Ctor:
        return VRecord(e.variant, {l: eval_expr_ctx(ctx, env, x) for l, x in e.fields})
    if t is ArrayLit:
        return tuple(eval_expr_ctx(ctx, env, x) for x in e.items)
    if t is Index:
        base = eval_expr_ctx(ctx, env, e.base)
        if isinstance(base, VBoxed):
            base = _force(ctx, base)
        idx = eval_expr_ctx(ctx, env, e.index)
        if not isinstance(base, tuple):
            raise InternalError(f"indexing non-array value {base!r}")
        if not 0 <= idx < len(base):
            raise _Infeasible(f"array index {idx} out of bounds for length {len(base)}")
        return base[idx]
    if t is Assert:
        cond = eval_expr_ctx(ctx, env, e.cond)
        if isinstance(cond, VBoxed):
            cond = _force(ctx, cond)
        if cond == 0:
            raise _AssertFail(e.aid)
        return None
    if t is BinOp:
        op = e.op
        if op == "&&":
            lhs = eval_expr_ctx(ctx, env, e.lhs)
            if lhs == 0:
                return 0
            return eval_expr_ctx(ctx, env, e.rhs)
        if op == "||":
            lhs = eval_expr_ctx(ctx, env, e.lhs)
            if lhs != 0:
                return 1
            return eval_expr_ctx(ctx, env, e.rhs)
        lhs = eval_expr_ctx(ctx, env, e.lhs)
        rhs = eval_expr_ctx(ctx, env, e.rhs)
        if op == "+":
            return wrap64(lhs + rhs)
        if op == "-":
            return wrap64(lhs - rhs)
        if op == "*":
            return wrap64(lhs * rhs)
        if op == "<":
            return 1 if lhs < rhs else 0
        if op == "<=":
            return 1 if lhs <= rhs else 0
        if op == ">":
            return 1 if lhs > rhs else 0
        if op == ">=":
            return 1 if lhs >= rhs else 0
        if op == "==":
            return 1 if values_equal(lhs, rhs, ctx) else 0
        if op == "!=":
            return 0 if values_equal(lhs, rhs, ctx) else 1
        raise InternalError(f"unknown operator {op!r}")
    if t is UnOp:
        v = eval_expr_ctx(ctx, env, e.operand)
        return 1 if v == 0 else 0
    if t is If:
        cond = eval_expr_ctx(ctx, env, e.cond)
        return eval_expr_ctx(ctx, env, e.then if cond != 0 else e.els)
    if t is Hole:
        return ctx.controls[e.cp]
    if t is Choice:
        return eval_expr_ctx(ctx, env, e.arms[ctx.controls[e.cp]])
    if t is AlwaysFail:
        raise _Infeasible("inlining bound placeholder reached")
    if t is BoxMake:
        term = eval_expr_ctx(ctx, env, e.term)
        gamma = None if e.gamma is None else eval_expr_ctx(ctx, env, e.gamma)
        return VBoxed(term, gamma)
    if t is UnitLit:
        return None
    if t is FuncRef:
        raise InternalError("function reference evaluated as a value")
    if hasattr(e, "unfold"):  # a template instance that has not run yet
        return eval_expr_ctx(ctx, env, e.unfold())
    raise InternalError(f"evaluator met unexpected node {t.__name__}")


def values_equal(a, b, ctx: _Ctx | None = None) -> bool:
    """Structural equality; boxed placeholders are forced first."""
    if isinstance(a, VBoxed) or isinstance(b, VBoxed):
        if ctx is None:
            raise InternalError("boxed value compared outside an evaluation")
        if isinstance(a, VBoxed):
            a = _force(ctx, a)
        if isinstance(b, VBoxed):
            b = _force(ctx, b)
    if isinstance(a, VRecord):
        if not isinstance(b, VRecord):
            raise InternalError("cross-type comparison (record vs non-record)")
        if a.variant != b.variant:
            return False
        return all(
            values_equal(a.fields[k], b.fields[k], ctx) for k in a.fields
        )
    if isinstance(a, tuple):
        if not isinstance(b, tuple):
            raise InternalError("cross-type comparison (array vs non-array)")
        if len(a) != len(b):
            return False
        return all(values_equal(x, y, ctx) for x, y in zip(a, b))
    if isinstance(b, (VRecord, tuple)):
        raise InternalError("cross-type comparison")
    return a == b


def evaluate_harness(
    program: SurfaceProgram,
    controls,
    sigma: dict,
    limits: EvalLimits,
    decomposition=None,
    harness: FuncDecl | None = None,
) -> Outcome:
    """Run a harness; deterministic in (program, controls, sigma, limits).

    `controls` maps control ids to values; the synthesizer's lazy binder
    is such a mapping.  Internal type mismatches raise InternalError: they
    indicate an expander bug, not a property of the input.
    """
    if harness is None:
        harnesses = program.harnesses
        if not harnesses:
            raise InternalError("program has no harness")
        harness = harnesses[0]
    # The tree walk recurses deeply; raise the limit for this call only.
    recursion_limit = sys.getrecursionlimit()
    if recursion_limit < 100_000:
        sys.setrecursionlimit(200_000)
    ctx = _Ctx(program, controls, limits, decomposition)
    env = {name: sigma[name] for name, _ in harness.params}
    try:
        eval_expr_ctx(ctx, env, harness.body)
    except _AssertFail as f:
        return Outcome(ASSERT_FAILED, assert_id=f.aid)
    except _Infeasible as f:
        return Outcome(INFEASIBLE, detail=f.detail)
    except _Exhausted as f:
        return Outcome(RESOURCE, detail=f.which)
    finally:
        sys.setrecursionlimit(recursion_limit)
    return OUTCOME_PASS
