"""Compilation of concrete (control-free) programs to Python for fast
bounded verification.

Exhaustive checking at the default depth means millions of harness
evaluations per full verification pass, which the tree-walking evaluator
cannot sustain; this module translates a concrete program (holes and
choices already substituted, decomposition nodes allowed) into plain
Python functions over native values: ints, variant-tagged tuples
``(name, f1, ...)``, tuples for arrays, ``None`` for unit, and ``Box``
for deferred recursion.

Semantics mirror the reference evaluator (same decomposition rewrite,
recursion-depth limits, assert ids, out-of-bounds behavior, 64-bit
wrapping arithmetic) with one documented deviation: no per-step budget
(termination is already forced by the depth limits).  The equivalence
test suite pins the compiled path against the reference evaluator.

Optional memoization caches non-root calls of unary recursive ADT
functions.  A call's outcome depends on its argument and on how deep the
recursion already is, so the key is the argument's identity together with
the entry values of every depth counter the call can reach: a result is
reused only at the same nesting, where the reference evaluator computes
the same result, and never where it would run out of depth instead.  The
argument is kept alive by the cache (so its identity is not reused), and
callers clear caches periodically to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    AdtType,
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
    Hole,
    If,
    Index,
    IntLit,
    Let,
    PrimType,
    RecordType,
    SurfaceProgram,
    Switch,
    UnitLit,
    UnOp,
    Var,
    walk,
)
from .errors import InternalError
from .evaluator import VBoxed, VRecord, wrap64
from .typesys import TypeEnv, type_of


class Box:
    __slots__ = ("term", "gamma")

    def __init__(self, term, gamma=None):
        self.term = term
        self.gamma = gamma


class CAssertFail(Exception):
    def __init__(self, aid: int):
        self.aid = aid


class CInfeasible(Exception):
    pass


class CExhausted(Exception):
    pass


@dataclass
class CompiledProgram:
    namespace: dict
    program: SurfaceProgram

    def func(self, name: str):
        return self.namespace[f"f_{name}"]

    def clear_memos(self) -> None:
        for k, tables in self.namespace.items():
            if k.startswith("_memo_"):
                for table in tables:
                    table.clear()

    def call_at(self, name: str, depth: int, *args):
        """Call `name` with every depth counter at zero except its own,
        as if `depth` frames of it were already active."""
        ns = self.namespace
        ns["_reset_depths"]()
        if f"_d_{name}" in ns:
            ns[f"_d_{name}"] = depth
        return ns[f"f_{name}"](*args)

    def reset(self) -> None:
        """Rebalance depth counters after an escaping exception."""
        self.namespace["_reset_depths"]()
        self.clear_memos()


class _FnCompiler:
    def __init__(self, comp: "_Compiler", fn: FuncDecl):
        self.comp = comp
        self.fn = fn
        self.lines: list[str] = []
        self.tmp = 0
        self.scope: dict[str, str] = {}
        self.used: set[str] = set()

    def fresh(self, base: str) -> str:
        name = f"v_{base}"
        while name in self.used:
            self.tmp += 1
            name = f"v_{base}_{self.tmp}"
        self.used.add(name)
        return name

    def temp(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # expression compilation: returns a Python expression string, emitting
    # any prerequisite statements at `indent`.

    def expr(self, e: Expr, env: TypeEnv, indent: int) -> str:
        t = type(e)
        if t is Var:
            return self.scope[e.name]
        if t is IntLit:
            return repr(e.value)
        if t is UnitLit:
            return "None"
        if t is Let:
            val = self.expr(e.value, env, indent)
            outer = self.scope.get(e.name)
            py = self.fresh(e.name)
            self.emit(indent, f"{py} = {val}")
            self.scope[e.name] = py
            result = self.expr(e.body, env.bind(e.name, e.ty), indent)
            if outer is None:
                del self.scope[e.name]
            else:
                self.scope[e.name] = outer
            return result
        if t is Call:
            args = [self.expr(a, env, indent) for a in e.args]
            return f"f_{e.callee}({', '.join(args)})"
        if t is Switch:
            out = self.temp()
            self.stmt_switch(e, env, indent, out)
            return out
        if t is FieldAccess:
            bt = type_of(env, e.base)
            if not isinstance(bt, RecordType):
                raise InternalError("compile: field access on non-record")
            idx = [l for l, _ in bt.fields].index(e.label) + 1
            return f"{self.expr(e.base, env, indent)}[{idx}]"
        if t is Ctor:
            parts = [repr(e.variant)] + [self.expr(v, env, indent) for _, v in e.fields]
            if len(parts) == 1:
                return f"({parts[0]},)"
            return "(" + ", ".join(parts) + ")"
        if t is ArrayLit:
            items = [self.expr(x, env, indent) for x in e.items]
            if not items:
                return "()"
            if len(items) == 1:
                return f"({items[0]},)"
            return "(" + ", ".join(items) + ")"
        if t is Index:
            base = self.expr(e.base, env, indent)
            idx = e.index
            if isinstance(idx, IntLit) and idx.value >= 0:
                return f"{base}[{idx.value}]"
            return f"_idx({base}, {self.expr(idx, env, indent)})"
        if t is Assert:
            cond = self.cond(e.cond, env, indent)
            self.emit(indent, f"if not ({cond}): raise CAssertFail({e.aid})")
            return "None"
        if t is BinOp:
            return self.binop_value(e, env, indent)
        if t is UnOp:
            return f"(0 if ({self.cond(e.operand, env, indent)}) else 1)"
        if t is If:
            cond = self.cond(e.cond, env, indent)
            mark = len(self.lines)
            then = self.expr(e.then, env, indent)
            els_mark = len(self.lines)
            els = self.expr(e.els, env, indent)
            if len(self.lines) == mark:
                return f"(({then}) if ({cond}) else ({els}))"
            # branches needed statements: re-emit as an if/else block
            del self.lines[mark:]
            out = self.temp()
            self.emit(indent, f"if {cond}:")
            then = self.expr(e.then, env, indent + 1)
            self.emit(indent + 1, f"{out} = {then}")
            self.emit(indent, "else:")
            els = self.expr(e.els, env, indent + 1)
            self.emit(indent + 1, f"{out} = {els}")
            return out
        if t is AlwaysFail:
            return "_fail()"
        if t is BoxMake:
            term = self.expr(e.term, env, indent)
            if e.gamma is None:
                return f"Box({term})"
            return f"Box({term}, {self.expr(e.gamma, env, indent)})"
        if t in (Hole, Choice):
            raise InternalError("compile: control node in a concrete program")
        raise InternalError(f"compile: unsupported node {t.__name__}")

    def binop_value(self, e: BinOp, env: TypeEnv, indent: int) -> str:
        op = e.op
        if op in ("&&", "||", "<", "<=", ">", ">=", "==", "!="):
            return f"(1 if ({self.cond(e, env, indent)}) else 0)"
        lhs = self.expr(e.lhs, env, indent)
        rhs = self.expr(e.rhs, env, indent)
        return f"_wrap64({lhs} {op} {rhs})"

    def cond(self, e: Expr, env: TypeEnv, indent: int) -> str:
        """Compile a bit-valued expression as a Python truth expression."""
        if isinstance(e, BinOp):
            op = e.op
            if op == "&&":
                return f"(({self.cond(e.lhs, env, indent)}) and ({self.cond(e.rhs, env, indent)}))"
            if op == "||":
                return f"(({self.cond(e.lhs, env, indent)}) or ({self.cond(e.rhs, env, indent)}))"
            if op in ("<", "<=", ">", ">="):
                return f"({self.expr(e.lhs, env, indent)} {op} {self.expr(e.rhs, env, indent)})"
            if op in ("==", "!="):
                lt = self._operand_type(e, env)
                neg = "not " if op == "!=" else ""
                if self._needs_deep_eq(lt):
                    return (
                        f"({neg}_eq({self.expr(e.lhs, env, indent)}, "
                        f"{self.expr(e.rhs, env, indent)}))"
                    )
                return f"({self.expr(e.lhs, env, indent)} {op} {self.expr(e.rhs, env, indent)})"
        if isinstance(e, UnOp):
            return f"(not ({self.cond(e.operand, env, indent)}))"
        return f"(({self.expr(e, env, indent)}) != 0)"

    def _operand_type(self, e: BinOp, env: TypeEnv):
        from .errors import TypeCheckError

        for side in (e.lhs, e.rhs):
            try:
                return type_of(env, side)
            except TypeCheckError:
                continue
        return None

    def _needs_deep_eq(self, ty) -> bool:
        if ty is None:
            return True
        if isinstance(ty, PrimType):
            return False
        return True

    # statement-position constructs -----------------------------------------

    def stmt_switch(self, e: Switch, env: TypeEnv, indent: int, target: str) -> None:
        scrut_py = self.scope[e.scrutinee]
        st = env.lookup(e.scrutinee)
        adt = env.program.adt(st.name)
        shape = self.comp.shape
        if shape is not None and st.name == shape.dest_adt:
            self.emit(indent, f"if type({scrut_py}) is Box: {scrut_py} = _force({scrut_py})")
        tag = self.temp()
        self.emit(indent, f"{tag} = {scrut_py}[0]")
        first = True
        for arm in e.arms:
            kw = "if" if first else "elif"
            first = False
            self.emit(indent, f"{kw} {tag} == {arm.variant!r}:")
            variant = adt.variant(arm.variant)
            arm_env = env.bind(e.scrutinee, variant.record_type())
            value = self.expr(arm.body, arm_env, indent + 1)
            self.emit(indent + 1, f"{target} = {value}")
        self.emit(indent, "else:")
        self.emit(indent + 1, "raise InternalError('no arm for ' + repr(" + tag + "))")

    # whole function -----------------------------------------------------------

    def compile(self) -> str:
        fn = self.fn
        comp = self.comp
        params = [self.fresh(n) for n, _ in fn.params]
        for (n, _), py in zip(fn.params, params):
            self.scope[n] = py
        dvar = f"_d_{fn.name}"
        recursive = fn.name in comp.recursive
        header = f"def f_{fn.name}({', '.join(params)}):"
        self.emit(0, header)
        shape = comp.shape
        memo = comp.memoize and recursive and self._memoizable()
        if recursive:
            self.emit(1, f"global {dvar}")
        if memo:
            # One table per entry value of the function's own depth counter;
            # within a table the key adds the entry values of the other
            # counters the call can reach.  Root calls (counter 0) are never
            # stored, so they skip the lookup.
            others = [f"_d_{g}" for g in sorted(comp.reach[fn.name]) if g != fn.name]
            key = f"(id({params[0]}), {', '.join(others)})" if others else f"id({params[0]})"
            self.emit(1, f"if {dvar}:")
            self.emit(2, f"_k = {key}")
            self.emit(2, f"_m = _memo_{fn.name}[{dvar}].get(_k)")
            self.emit(2, "if _m is not None: return _m[1]")
        if shape is not None and fn.name == shape.interp_d:
            p0 = params[0]
            rest = ", ".join(params[1:])
            rest_args = f", {rest}" if rest else ""
            self.emit(1, f"if type({p0}) is Box:")
            if shape.abstraction is None:
                self.emit(2, f"return f_{shape.interp_s}({p0}.term{rest_args})")
            else:
                self.emit(2, f"if _eq(f_{shape.abstraction}({rest}), {p0}.gamma):")
                self.emit(3, f"return f_{shape.interp_s}({p0}.term{rest_args})")
                self.emit(2, f"{p0} = f_{shape.trans}({p0}.term, {p0}.gamma)")
        if recursive:
            # No try/finally: an escaping exception ends the whole scan, and
            # `reset()` rebalances the counters before any reuse.
            self.emit(1, f"if {dvar} >= {comp.max_depth}: raise CExhausted")
            self.emit(1, f"{dvar} += 1")
        env = TypeEnv(comp.program)
        for n, t in fn.params:
            env = env.bind(n, t)
        result = self.expr(fn.body, env, 1)
        self.emit(1, f"_r = {result}")
        if recursive:
            self.emit(1, f"{dvar} -= 1")
        if memo:
            self.emit(1, f"if {dvar}: _memo_{fn.name}[{dvar}][_k] = ({params[0]}, _r)")
        self.emit(1, "return _r")
        return "\n".join(self.lines)

    def _memoizable(self) -> bool:
        fn = self.fn
        return len(fn.params) == 1 and isinstance(fn.params[0][1], AdtType)


class _Compiler:
    def __init__(self, program: SurfaceProgram, shape, max_depth: int, memoize: bool):
        self.program = program
        self.shape = shape
        self.max_depth = max_depth
        self.memoize = memoize
        self.recursive, self.reach = _recursive_functions(program, shape)


def _recursive_functions(program: SurfaceProgram, shape):
    """Names reachable from their own bodies through the call graph, and
    for each function the recursive functions its calls can reach
    (itself included when recursive).

    Only recursive functions need depth bookkeeping.  With decomposition
    active, boxed forcing and the interpreter rewrite add trans <->
    interpreter edges.
    """
    calls: dict[str, set[str]] = {}
    for f in program.functions:
        callees = {n.callee for n in walk(f.body) if isinstance(n, Call)}
        if shape is not None:
            if f.name == shape.interp_d:
                callees.add(shape.interp_s)
                if shape.abstraction is not None:
                    callees.add(shape.abstraction)
                    callees.add(shape.trans)
            if any(isinstance(n, BoxMake) for n in walk(f.body)):
                callees.add(shape.trans)
        calls[f.name] = callees
    reachable: dict[str, set[str]] = {}
    for name in calls:
        seen: set[str] = set()
        stack = list(calls[name])
        while stack:
            c = stack.pop()
            if c in seen or c not in calls:
                continue
            seen.add(c)
            stack.extend(calls[c])
        reachable[name] = seen
    recursive = {name for name, seen in reachable.items() if name in seen}
    reach = {name: (seen | {name}) & recursive for name, seen in reachable.items()}
    return recursive, reach



_PRELUDE = '''
def _idx(arr, i):
    if 0 <= i < len(arr):
        return arr[i]
    raise CInfeasible

def _fail():
    raise CInfeasible

def _force(b):
    while type(b) is Box:
        b = _FORCE_FN(b)
    return b

def _eq(a, b):
    if type(a) is Box: a = _force(a)
    if type(b) is Box: b = _force(b)
    ta = type(a) is tuple
    if ta != (type(b) is tuple):
        raise InternalError("cross-type comparison")
    if ta:
        if len(a) != len(b): return False
        for x, y in zip(a, b):
            if not _eq(x, y): return False
        return True
    return a == b
'''


def compile_concrete(
    program: SurfaceProgram,
    shape=None,
    max_depth: int = 5,
    memoize: bool = False,
) -> CompiledProgram:
    """Compile a concrete program into native Python functions.

    `shape` enables the decomposition rewrite for boxed values; `max_depth`
    is the per-function recursion limit.
    """
    comp = _Compiler(program, shape, max_depth, memoize)
    chunks = [_PRELUDE]
    depth_vars = []
    for f in program.functions:
        if f.name in comp.recursive:
            chunks.append(f"_d_{f.name} = 0")
            depth_vars.append(f"_d_{f.name}")
            if memoize and _FnCompiler(comp, f)._memoizable():
                chunks.append(f"_memo_{f.name} = [{{}} for _ in range({max_depth + 1})]")
        chunks.append(_FnCompiler(comp, f).compile())
    if depth_vars:
        chunks.append("def _reset_depths():")
        chunks.append("    global " + ", ".join(depth_vars))
        chunks.append("    " + " = ".join(depth_vars) + " = 0")
    else:
        chunks.append("def _reset_depths():\n    pass")
    source = "\n".join(chunks)
    namespace = {
        "Box": Box,
        "CAssertFail": CAssertFail,
        "CInfeasible": CInfeasible,
        "CExhausted": CExhausted,
        "InternalError": InternalError,
        "_wrap64": wrap64,
    }
    try:
        exec(compile(source, "<synrec-compiled>", "exec"), namespace)
    except SyntaxError as err:  # pragma: no cover - compiler bug guard
        raise InternalError(f"generated code failed to compile: {err}\n{source}")
    if shape is not None:

        def _force_fn(b, _ns=namespace, _trans=shape.trans):
            f = _ns[f"f_{_trans}"]
            if b.gamma is None:
                return f(b.term)
            return f(b.term, b.gamma)

        namespace["_FORCE_FN"] = _force_fn
    else:
        namespace["_FORCE_FN"] = None
    return CompiledProgram(namespace, program)


def to_native(value):
    """Convert a reference value (VRecord/tuple/int) to the native form."""
    if isinstance(value, VRecord):
        return (value.variant,) + tuple(to_native(v) for v in value.fields.values())
    if isinstance(value, tuple):
        return tuple(to_native(v) for v in value)
    if isinstance(value, VBoxed):
        return Box(to_native(value.term), None if value.gamma is None else to_native(value.gamma))
    return value
