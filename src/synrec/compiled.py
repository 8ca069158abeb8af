"""Compilation of expanded programs to Python: the executor of both the
inductive search and the bounded check.

A program is compiled once per synthesis run and runs under any control
assignment: a hole becomes the runtime read ``_rd(cp)``, and a choice an
inline conditional that reads its point once and evaluates only the
selected arm.  ``CompiledProgram.bind_controls`` installs the read: the
lazy binder's during the search, a total assignment's during the check.
Values are native: ints, variant-tagged tuples ``(name, f1, ...)``,
tuples for arrays, ``None`` for unit, and ``Box`` for deferred recursion.

A program compiled with a decomposition shape makes each deferred call of
the translation through the box builder ``_box``.  Bound to ``Box``, as
compiled, the program runs decomposed: the inductive search.  Bound to
the translation by ``CompiledProgram.bind_boxes(False)``, it makes the
call right there and runs as the plain program: the check.  So a
decomposed run compiles one program for both.

Semantics mirror the reference evaluator (same decomposition rewrite,
per-function recursion-depth limits, assert ids, out-of-bounds behavior,
64-bit wrapping arithmetic), and so does the order of control reads:
operands run left to right, ``&&``/``||`` short-circuit, and nothing of an
unselected arm runs.  Where a later operand needs statements (a ``let``,
``switch`` or ``assert``), the earlier operands are spilled to
temporaries first.  Property tests pin the compiled path, and the
compiled search, against the reference evaluator.

Non-root calls of unary recursive ADT functions are memoized.  A call's
outcome depends on its argument, on how deep the recursion already is,
and on the control reads it makes, so the key is the argument's identity
together with the entry values of every depth counter the call can
reach: a result is reused only at the same nesting, where the reference
evaluator computes the same result, and never where it would run out of
depth instead.  Entries hold only while the controls they read keep their
values: `bind_controls` drops them, and so must a lazy search before it
changes a binding.  A hit then replays only reads that are already bound.
The argument is kept alive by the cache (so its identity is not reused),
and callers clear caches periodically to bound memory.
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
)
from .errors import InternalError, TypeCheckError
from .evaluator import wrap64
from .typesys import TypeEnv, type_of


def _tuple(parts: list[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


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
    memos: list[dict]
    # the decomposition's translation, if compiled with a shape
    trans: str | None = None

    def func(self, name: str):
        return self.namespace[f"f_{name}"]

    def clear_memos(self) -> None:
        for table in self.memos:
            table.clear()

    def call_at(self, name: str, depth: int, *args):
        """Call `name` with every depth counter at zero except its own,
        as if `depth` frames of it were already active."""
        ns = self.namespace
        ns["_reset_depths"]()
        if f"_d_{name}" in ns:
            ns[f"_d_{name}"] = depth
        return ns[f"f_{name}"](*args)

    def bind_controls(self, read) -> None:
        """Read holes and choices through `read(cp)` from now on.  Memo
        entries hold only under the assignment that computed them, so they
        are dropped, and the depth counters are rebalanced (an escaping
        exception leaves them raised)."""
        self.namespace["_rd"] = read
        self.namespace["_reset_depths"]()
        self.clear_memos()

    def bind_boxes(self, boxed: bool) -> None:
        """Make a box where the decomposition deferred a call of the
        translation (`boxed`, as compiled), or make that call right there,
        which runs the plain program.  Memo entries and depth counters are
        dropped as by `bind_controls`."""
        self.namespace["_box"] = Box if boxed else self.func(self.trans)
        self.namespace["_reset_depths"]()
        self.clear_memos()


class _FnCompiler:
    """Compiles one function's body, collecting its callees; `compile` adds
    the depth and memo bookkeeping once the whole call graph is known."""

    def __init__(self, comp: "_Compiler", fn: FuncDecl):
        self.comp = comp
        self.fn = fn
        self.lines: list[str] = []
        self.tmp = 0
        self.scope: dict[str, str] = {}
        self.used: set[str] = set()
        self.callees: set[str] = set()
        self.params = [self.fresh(n) for n, _ in fn.params]
        env = TypeEnv(comp.program)
        for (n, t), py in zip(fn.params, self.params):
            self.scope[n] = py
            env = env.bind(n, t)
        self.result = self.expr(fn.body, env, 1)

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

    def operands(self, exprs, env: TypeEnv, indent: int) -> list[str]:
        """Compile operands that run left to right.  When one needs
        statements, the earlier ones are spilled to temporaries ahead of
        them, so they still run first."""
        out: list[str] = []
        for x in exprs:
            mark = len(self.lines)
            py = self.expr(x, env, indent)
            if len(self.lines) > mark:
                spills = []
                for i, prev in enumerate(out):
                    if not (prev.isidentifier() or prev.lstrip("-").isdigit()):
                        out[i] = self.temp()
                        spills.append("    " * indent + f"{out[i]} = {prev}")
                self.lines[mark:mark] = spills
            out.append(py)
        return out

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
            self.callees.add(e.callee)
            return f"f_{e.callee}({', '.join(self.operands(e.args, env, indent))})"
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
            return _tuple([repr(e.variant)] + self.operands([v for _, v in e.fields], env, indent))
        if t is ArrayLit:
            return _tuple(self.operands(e.items, env, indent))
        if t is Index:
            idx = e.index
            if isinstance(idx, IntLit) and idx.value >= 0:
                return f"{self.expr(e.base, env, indent)}[{idx.value}]"
            return f"_idx({', '.join(self.operands((e.base, idx), env, indent))})"
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
            return self.branches(cond, (e.then, e.els), env, indent)
        if t is Hole:
            return f"_rd({e.cp})"
        if t is Choice:
            return self.branches(None, e.arms, env, indent, e.cp)
        if t is AlwaysFail:
            return "_fail()"
        if t is BoxMake:
            self.callees.add(e.trans)
            parts = (e.term,) if e.gamma is None else (e.term, e.gamma)
            return f"_box({', '.join(self.operands(parts, env, indent))})"
        raise InternalError(f"compile: unsupported node {t.__name__}")

    def branches(self, test, arms, env: TypeEnv, indent: int, cp=None) -> str:
        """Run one arm: arm 0 or 1 by the truth expression `test`, or,
        with control point `cp`, arm i when `cp` reads i.  Only the
        selected arm runs: inline when no arm needs statements, else as an
        if/elif block."""
        mark = len(self.lines)
        values = [self.expr(a, env, indent) for a in arms]
        if len(self.lines) == mark:
            if cp is None:
                return self.outline(f"(({values[0]}) if ({test}) else ({values[1]}))")
            # expansion leaves no choice with fewer than two arms
            k = self.temp()
            reads = [f"({k} := _rd({cp}))"] + [k] * len(values)
            tests = [f"{v} if {r} == {i} else " for i, (v, r) in enumerate(zip(values, reads))]
            return self.outline(f"({''.join(tests[:-1])}{values[-1]})")
        # an arm needed statements: re-emit as an if/elif block
        del self.lines[mark:]
        out = self.temp()
        if cp is None:
            tests = [f"if {test}:"]
        else:
            k = self.temp()
            self.emit(indent, f"{k} = _rd({cp})")
            tests = [f"{'el' if i else ''}if {k} == {i}:" for i in range(len(arms) - 1)]
        for line, arm in zip(tests + ["else:"], arms):
            self.emit(indent, line)
            self.emit(indent + 1, f"{out} = {self.expr(arm, env, indent + 1)}")
        return out

    def outline(self, value: str) -> str:
        """Move a long expression into a function compiled on its own:
        Python's parser needs memory in proportion to the code it compiles
        at once, and the conditionals of a large expansion nest deeply."""
        if len(value) <= _OUTLINE_CHARS:
            return value
        params = ", ".join(sorted(set(self.scope.values())))
        name = f"_x{len(self.comp.outlined)}"
        self.comp.outlined.append(f"def {name}({params}):\n    return {value}")
        return f"{name}({params})"

    def binop_value(self, e: BinOp, env: TypeEnv, indent: int) -> str:
        op = e.op
        if op in ("&&", "||", "<", "<=", ">", ">=", "==", "!="):
            return f"(1 if ({self.cond(e, env, indent)}) else 0)"
        lhs, rhs = self.operands((e.lhs, e.rhs), env, indent)
        return f"_wrap64({lhs} {op} {rhs})"

    def cond(self, e: Expr, env: TypeEnv, indent: int) -> str:
        """Compile a bit-valued expression as a Python truth expression."""
        if isinstance(e, BinOp):
            op = e.op
            if op in ("&&", "||"):
                lhs = self.cond(e.lhs, env, indent)
                mark = len(self.lines)
                rhs = self.cond(e.rhs, env, indent)
                if len(self.lines) == mark:
                    return f"(({lhs}) {'and' if op == '&&' else 'or'} ({rhs}))"
                # the right operand needs statements: run them only when
                # the left operand does not decide
                del self.lines[mark:]
                out = self.temp()
                self.emit(indent, f"{out} = {lhs}")
                self.emit(indent, f"if {'' if op == '&&' else 'not '}{out}:")
                self.emit(indent + 1, f"{out} = {self.cond(e.rhs, env, indent + 1)}")
                return out
            if op in ("<", "<=", ">", ">="):
                lhs, rhs = self.operands((e.lhs, e.rhs), env, indent)
                return f"({lhs} {op} {rhs})"
            if op in ("==", "!="):
                lt = self._operand_type(e, env)
                neg = "not " if op == "!=" else ""
                lhs, rhs = self.operands((e.lhs, e.rhs), env, indent)
                if not isinstance(lt, PrimType):
                    return f"({neg}_eq({lhs}, {rhs}))"
                return f"({lhs} {op} {rhs})"
        if isinstance(e, UnOp):
            return f"(not ({self.cond(e.operand, env, indent)}))"
        return f"(({self.expr(e, env, indent)}) != 0)"

    def _operand_type(self, e: BinOp, env: TypeEnv):
        for side in (e.lhs, e.rhs):
            try:
                return type_of(env, side)
            except TypeCheckError:
                continue
        return None

    # statement-position constructs -----------------------------------------

    def stmt_switch(self, e: Switch, env: TypeEnv, indent: int, target: str) -> None:
        scrut_py = self.scope[e.scrutinee]
        st = env.lookup(e.scrutinee)
        adt = env.program.adt(st.name)
        shape = self.comp.shape
        if shape is not None and st.name == shape.dest_adt:
            # the arms see the forced value; the variable keeps the box
            boxed, scrut_py = scrut_py, self.fresh(e.scrutinee)
            self.emit(indent, f"{scrut_py} = _force({boxed}) if type({boxed}) is Box else {boxed}")
            self.scope[e.scrutinee] = scrut_py
        tag = self.temp()
        self.emit(indent, f"{tag} = {scrut_py}[0]")
        for i, arm in enumerate(e.arms):
            self.emit(indent, f"{'el' if i else ''}if {tag} == {arm.variant!r}:")
            variant = adt.variant(arm.variant)
            arm_env = env.bind(e.scrutinee, variant.record_type())
            value = self.expr(arm.body, arm_env, indent + 1)
            self.emit(indent + 1, f"{target} = {value}")
        self.emit(indent, "else:")
        self.emit(indent + 1, "raise InternalError('no arm for ' + repr(" + tag + "))")
        if shape is not None and st.name == shape.dest_adt:
            self.scope[e.scrutinee] = boxed

    # whole function -----------------------------------------------------------

    def compile(self) -> str:
        fn = self.fn
        comp = self.comp
        params = self.params
        body, self.lines = self.lines, []
        dvar = f"_d_{fn.name}"
        recursive = fn.name in comp.recursive
        header = f"def f_{fn.name}({', '.join(params)}):"
        self.emit(0, header)
        shape = comp.shape
        memo = recursive and self._memoizable()
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
            # No try/finally: the caller runs `_reset_depths` after an
            # escaping exception, before any reuse.
            self.emit(1, f"if {dvar} >= {comp.max_depth}: raise CExhausted")
            self.emit(1, f"{dvar} += 1")
        self.lines += body
        self.emit(1, f"_r = {self.result}")
        if recursive:
            self.emit(1, f"{dvar} -= 1")
        if memo:
            self.emit(1, f"if {dvar}: _memo_{fn.name}[{dvar}][_k] = ({params[0]}, _r)")
        self.emit(1, "return _r")
        return "\n".join(self.lines)

    def _memoizable(self) -> bool:
        fn = self.fn
        return len(fn.params) == 1 and isinstance(fn.params[0][1], AdtType)


_OUTLINE_CHARS = 2000  # see `_FnCompiler.outline`


class _Compiler:
    def __init__(self, program: SurfaceProgram, shape, max_depth: int):
        self.program = program
        self.shape = shape
        self.max_depth = max_depth
        self.outlined: list[str] = []  # sources of outlined expressions
        self.recursive: set[str] = set()
        self.reach: dict[str, set[str]] = {}


def _recursive_functions(calls: dict[str, set[str]], shape):
    """Names reachable from their own bodies through the call graph
    `calls` (callees by caller, boxes counting as calls of trans), and
    for each function the recursive functions its calls can reach
    (itself included when recursive).

    Only recursive functions need depth bookkeeping.  With decomposition
    active, the destination interpreter's rewrite adds the calls it makes.
    """
    if shape is not None and shape.interp_d in calls:
        calls[shape.interp_d].add(shape.interp_s)
        if shape.abstraction is not None:
            calls[shape.interp_d] |= {shape.abstraction, shape.trans}
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
) -> CompiledProgram:
    """Compile a program, holes and choices included, into native Python
    functions; call `bind_controls` before running one that reads controls.

    `shape` enables the decomposition rewrite for boxed values; `max_depth`
    is the per-function recursion limit.
    """
    comp = _Compiler(program, shape, max_depth)
    fns = [_FnCompiler(comp, f) for f in program.functions]
    comp.recursive, comp.reach = _recursive_functions(
        {fc.fn.name: fc.callees for fc in fns}, shape
    )
    chunks = [_PRELUDE]
    depth_vars = []
    namespace = {
        "Box": Box,
        "_box": Box,
        "CAssertFail": CAssertFail,
        "CInfeasible": CInfeasible,
        "CExhausted": CExhausted,
        "InternalError": InternalError,
        "_wrap64": wrap64,
    }
    memos: list[dict] = []
    for fc in fns:
        name = fc.fn.name
        if name in comp.recursive:
            chunks.append(f"_d_{name} = 0")
            depth_vars.append(f"_d_{name}")
            if fc._memoizable():
                tables = [{} for _ in range(max_depth + 1)]
                namespace[f"_memo_{name}"] = tables
                memos += tables
        chunks.append(fc.compile())
    if depth_vars:
        chunks.append("def _reset_depths():")
        chunks.append("    global " + ", ".join(depth_vars))
        chunks.append("    " + " = ".join(depth_vars) + " = 0")
    else:
        chunks.append("def _reset_depths():\n    pass")
    source = "\n".join(chunks)
    for text in [source, *comp.outlined]:
        try:
            exec(compile(text, "<synrec-compiled>", "exec"), namespace)
        except SyntaxError as err:  # pragma: no cover - compiler bug guard
            raise InternalError(f"generated code failed to compile: {err}\n{text}")
    if shape is not None:

        def _force_fn(b, _ns=namespace, _trans=shape.trans):
            f = _ns[f"f_{_trans}"]
            if b.gamma is None:
                return f(b.term)
            return f(b.term, b.gamma)

        namespace["_FORCE_FN"] = _force_fn
    else:
        namespace["_FORCE_FN"] = None
    trans = None if shape is None else shape.trans
    return CompiledProgram(namespace, program, memos, trans)

