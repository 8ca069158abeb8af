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

What the expansion holds outside choice arms is compiled up front, in one
piece.  A template instance that stays a `_Use` in a choice arm (see
`expand`) compiles only when it first runs: its call goes to a stub that
compiles the instance into the namespace in its place (`_Compiler.stub`),
so an arm that no candidate selects is never compiled.  Such an instance
is compiled straight to its shared form, a chunk: its locals are named by
position, its control reads and its calls of other instances are
numbered placeholders, and equal texts compile once.  Each instance runs
a copy of the chunk's code object with its own control ids and callees
in the placeholders' places (see `_Compiler.arm`).  An expression whose
first operand is `unreachable` compiles to the failure alone.

Some control values fail right at their point's read, whatever the other
points hold, and the compiler records them as it compiles each site
(`CompiledProgram.dead_from`, the least such value of each point): a hole
that indexes an array of static length n, a literal or a name `let`-bound
to one, fails from n on (from 0 on it compiles to the read and the
failure), and a choice fails from one past its last arm that does not
fail at once.  An arm fails at once when its value raises as soon as it
runs, after its reads: `unreachable`, such an index, a choice whose arms
all do, or a constructor, array, or `let` body whose value is one.  An
instance compiled on its first run records its points then, before any
of them is read.  The lazy search never flips a point to a dead value.

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
values: `bind_controls` and `bind_boxes` drop them all, and a lazy search
drops those of the candidate's tables (`drop_candidate`) before it changes
a binding.  A hit then replays only reads that are already bound.  A table
is the candidate's unless its function is input-only: neither it nor
anything it can call reads a control point, makes a box or forces one, so
its entries hold under every assignment, and no function of the program
constructs a value of its parameter's ADT, so its arguments are inputs and
their parts, which the search runs again and again (the source
interpreter, on a counterexample's subtrees).  The argument is kept alive
by the cache (so its identity is not reused), and callers clear caches
periodically to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import CodeType, FunctionType

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
    STANDARD,
    SurfaceProgram,
    Switch,
    UnitLit,
    UnOp,
    Var,
    walk,
)
from .errors import InternalError, TypeCheckError
from .evaluator import wrap64
from .instances import _Template, _Use
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
    # the tables of `memos` whose entries hold only under the candidate
    # that made them (see the module docstring)
    candidate_memos: list[dict]
    # the decomposition's translation, if compiled with a shape
    trans: str | None = None
    # its compiler, which compiles instances left in choice arms on their
    # first run (see `_Compiler.stub`)
    compiler: "_Compiler | None" = field(default=None, repr=False)
    # control point -> the least value from which every value fails at the
    # point's read; an arm compiled on its first run adds its points then
    dead_from: dict[int, int] = field(default_factory=dict)

    def func(self, name: str):
        return self.namespace[f"f_{name}"]

    def clear_memos(self) -> None:
        for table in self.memos:
            table.clear()

    def drop_candidate(self) -> None:
        """Forget a candidate that failed: rebalance the depth counters its
        escaping exception left raised, and drop the memo entries that
        hold only under its bindings.  Input-only entries stay."""
        self.namespace["_reset_depths"]()
        for table in self.candidate_memos:
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
    """Compiles one function's body, collecting its callees, the variants
    it constructs and whether it reads the candidate (a control point, or
    a box it makes or forces); `compile` adds the depth and memo
    bookkeeping once the whole call graph is known.

    For an instance that stays a `_Use` (see `_Compiler.arm`), `fn` is its
    template's tree over the variables of the template's key, and its
    control ids count from `base`.  An instance inside it stays a call of
    its own when it lies in a choice arm, and is compiled in place
    otherwise.  `lengths` gives the static lengths of the array parameters
    that have one, by position.  Such an instance compiles as a `chunk`:
    its k-th control read is the placeholder `_rd(k.5)` and its j-th call
    of an instance `nj`, numbered in emission order (those of arms that
    `branches` re-emits included), and `reads` and `calls` hold the real
    control ids and stub names."""

    def __init__(self, comp: "_Compiler", fn: FuncDecl, base=0, lengths=None, chunk=False):
        self.comp = comp
        self.fn = fn
        self.base = base
        self.reads: list[int] | None = [] if chunk else None
        self.calls: list[str] = []
        self.choices = 0  # how many choices the current node lies in
        self.lines: list[str] = []
        self.tmp = 0
        self.scope: dict[str, str] = {}
        self.callees: set[str] = set()
        self.variants: set[str] = set()
        # the destination interpreter's rewrite forces boxes
        shape = comp.shape
        self.reads_candidate = shape is not None and fn.name == shape.interp_d
        # Python expressions that raise, after their reads, as soon as they
        # run, or whose statements have already raised when they run (see
        # the module docstring): a constructor or array whose first operand
        # is one fails the same way, so it compiles to that operand alone.
        self.failing = {_FAIL}
        self.params = [self.temp() for _ in fn.params]
        # the static length of each array variable bound to a literal
        self.lengths = {self.params[i]: n for i, n in (lengths or {}).items()}
        env = TypeEnv(comp.program)
        for (n, t), py in zip(fn.params, self.params):
            self.scope[n] = py
            env = env.bind(n, t)
        self.result = self.expr(fn.body, env, 1)

    def temp(self) -> str:
        """A new local, named by position so that equal instances compile
        to equal text."""
        self.tmp += 1
        return f"_t{self.tmp}"

    def read(self, cp: int) -> str:
        """Read control point `cp`, in a chunk through a placeholder."""
        if self.reads is None:
            return f"_rd({cp})"
        self.reads.append(cp)
        return f"_rd({len(self.reads) - 1}.5)"

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
                        if prev in self.failing:
                            # the spill fails before the temporary is read
                            self.failing.add(out[i])
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
            py = self.temp()
            self.emit(indent, f"{py} = {val}")
            self.scope[e.name] = py
            if type(e.value) is ArrayLit:
                self.lengths[py] = len(e.value.items)
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
            self.variants.add(e.variant)
            values = self.operands([v for _, v in e.fields], env, indent)
            if values and values[0] in self.failing:
                return values[0]
            return _tuple([repr(e.variant)] + values)
        if t is ArrayLit:
            values = self.operands(e.items, env, indent)
            if values and values[0] in self.failing:
                return values[0]
            return _tuple(values)
        if t is Index:
            idx = e.index
            if isinstance(idx, IntLit) and idx.value >= 0:
                return f"{self.expr(e.base, env, indent)}[{idx.value}]"
            base, index = self.operands((e.base, idx), env, indent)
            n = self.length(e.base) if type(idx) is Hole else None
            if n is not None:
                # every index from the array's length on fails at this read
                self.comp.dead_from[idx.cp + self.base] = n
                if n == 0:
                    failed = f"_fail({index})"
                    self.failing.add(failed)
                    return failed
            return f"_idx({base}, {index})"
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
            self.reads_candidate = True
            return self.read(e.cp + self.base)
        if t is Choice:
            self.reads_candidate = True
            self.choices += 1
            value = self.branches(None, e.arms, env, indent, e.cp + self.base)
            self.choices -= 1
            return value
        if t is AlwaysFail:
            return _FAIL
        if t is _Use:
            return self.use(e, env, indent)
        if t is BoxMake:
            self.reads_candidate = True
            self.callees.add(e.trans)
            parts = (e.term,) if e.gamma is None else (e.term, e.gamma)
            return f"_box({', '.join(self.operands(parts, env, indent))})"
        raise InternalError(f"compile: unsupported node {t.__name__}")

    def use(self, e: _Use, env: TypeEnv, indent: int) -> str:
        """Call an instance that stays a `_Use` in a choice arm, compiled on
        its first run (`_Compiler.stub`).  It takes the variables of its
        template's key, and can call and build what its template can."""
        tpl = e.template
        if not (self.choices and tpl.lazy):
            self.base += e.offset
            value = self.expr(tpl.tree, env, indent)
            self.base -= e.offset
            return value
        callees, variants = _template_facts(tpl)
        self.callees |= callees
        self.variants |= variants
        args = [self.scope[e.names.get(n, n)] for n in tpl.env]
        lengths = {i: self.lengths[a] for i, a in enumerate(args) if a in self.lengths}
        name = self.comp.stub(tpl, self.base + e.offset, lengths)
        if self.reads is not None:
            self.calls.append(name)
            name = f"n{len(self.calls) - 1}"
        return f"{name}({', '.join(args)})"

    def length(self, e: Expr) -> int | None:
        """The static length of an array expression: a literal, or a
        variable bound to one; None when unknown."""
        if type(e) is Var:
            return self.lengths.get(self.scope[e.name])
        return len(e.items) if type(e) is ArrayLit else None

    def branches(self, test, arms, env: TypeEnv, indent: int, cp=None) -> str:
        """Run one arm: arm 0 or 1 by the truth expression `test`, or,
        with control point `cp`, arm i when `cp` reads i.  Only the
        selected arm runs: inline when no arm needs statements, else as an
        if/elif block."""
        mark = len(self.lines)
        values = [self.expr(a, env, indent) for a in arms]
        live = [i for i, v in enumerate(values) if v not in self.failing]
        if cp is not None and (not live or live[-1] + 1 < len(values)):
            # every value after the last arm that does not fail at once
            self.comp.dead_from[cp] = live[-1] + 1 if live else 1
        if len(self.lines) == mark:
            if cp is None:
                return f"(({values[0]}) if ({test}) else ({values[1]}))"
            if all(v == _FAIL for v in values):
                value = f"_fail({self.read(cp)})"  # read the point, then fail
            else:
                # Expansion leaves no choice with fewer than two arms.  All
                # tests of the chain run before any arm does, so every chain
                # can keep its read in the same local `_s`.
                reads = [f"(_s := {self.read(cp)})"] + ["_s"] * len(values)
                tests = [f"{v} if {r} == {i} else " for i, (v, r) in enumerate(zip(values, reads))]
                value = f"({''.join(tests[:-1])}{values[-1]})"
        else:
            # an arm needed statements: re-emit as an if/elif block
            del self.lines[mark:]
            value = self.temp()
            if cp is None:
                tests = [f"if {test}:"]
            else:
                k = self.temp()
                self.emit(indent, f"{k} = {self.read(cp)}")
                tests = [f"{'el' if i else ''}if {k} == {i}:" for i in range(len(arms) - 1)]
            for line, arm in zip(tests + ["else:"], arms):
                self.emit(indent, line)
                self.emit(indent + 1, f"{value} = {self.expr(arm, env, indent + 1)}")
        if cp is not None and not live:
            self.failing.add(value)  # every arm fails at once
        return value

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
                    if self.comp.shape is not None:
                        self.reads_candidate = True  # `_eq` forces boxes
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
            self.reads_candidate = True
            boxed, scrut_py = scrut_py, self.temp()
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


_FAIL = "_fail()"  # `unreachable`


class _Compiler:
    def __init__(self, program: SurfaceProgram, shape, max_depth: int):
        self.program = program
        self.shape = shape
        self.max_depth = max_depth
        self.recursive: set[str] = set()
        self.reach: dict[str, set[str]] = {}
        self.namespace: dict = {
            "Box": Box,
            "_box": Box,
            "CAssertFail": CAssertFail,
            "CInfeasible": CInfeasible,
            "CExhausted": CExhausted,
            "InternalError": InternalError,
            "_wrap64": wrap64,
        }
        self.stubs = 0
        self.compiled = 0  # how many stubs have run
        self.codes: dict[str, CodeType] = {}  # chunk text -> its code
        self.dead_from: dict[int, int] = {}  # see `CompiledProgram.dead_from`

    def stub(self, tpl: _Template, base: int, lengths: dict) -> str:
        """Name the instance of `tpl` at control id `base`, bound to a stub
        that compiles it on its first call and then calls it.  Compiling it
        records its points' dead values before any of them is read.
        `lengths`: see `_FnCompiler`."""
        name = f"_u{self.stubs}"
        self.stubs += 1

        def first(*args):
            return self.arm(name, tpl, base, lengths)(*args)

        self.namespace[name] = first
        return name

    def arm(self, name: str, tpl: _Template, base: int, lengths: dict):
        """Compile an instance that stayed a `_Use` as a chunk taking the
        variables of its template's key, in place of its stub.  Instances
        of equal text, of one template or of several, compile once, and
        each runs its own copy of the code (see `_instance`)."""
        self.compiled += 1
        fn = FuncDecl(STANDARD, name, (), tuple(tpl.env.items()), tpl.required, tpl.tree)
        fc = _FnCompiler(self, fn, base, lengths, chunk=True)
        body = "\n".join(fc.lines + [f"    return {fc.result}"])
        text = f"def chunk({', '.join(fc.params)}):\n{body}"
        code = self.codes.get(text)
        if code is None:
            _exec(text, self.namespace)
            code = self.codes[text] = self.namespace.pop("chunk").__code__
        fn = self.namespace[name] = _instance(code, fc.reads, fc.calls, self.namespace, name)
        return fn


def _instance(code: CodeType, cps: list[int], stubs: list[str], namespace: dict, name: str):
    """An instance of a chunk: its code with the placeholder `k.5` replaced
    by the k-th control id (the only floats in compiled code) and `nk` by
    the k-th stub it calls."""
    reads = {k + 0.5: cp for k, cp in enumerate(cps)}
    calls = {f"n{k}": sub for k, sub in enumerate(stubs)}
    code = code.replace(
        co_consts=tuple(reads[c] if type(c) is float else c for c in code.co_consts),
        co_names=tuple(calls.get(n, n) for n in code.co_names),
    )
    return FunctionType(code, namespace, name)


def _template_facts(tpl: _Template) -> tuple[frozenset, frozenset]:
    """The functions that an instance of `tpl` can call and the variants
    it can construct, in any of its arms; found once per template."""
    if tpl.facts is None:
        callees: set[str] = set()
        variants: set[str] = set()
        for e in walk(tpl.tree):
            t = type(e)
            if t is Call:
                callees.add(e.callee)
            elif t is Ctor:
                variants.add(e.variant)
            elif t is _Use:
                more_callees, more_variants = _template_facts(e.template)
                callees |= more_callees
                variants |= more_variants
        tpl.facts = frozenset(callees), frozenset(variants)
    return tpl.facts


def _recursive_functions(calls: dict[str, set[str]], shape):
    """Names reachable from their own bodies through the call graph
    `calls` (callees by caller, boxes counting as calls of trans); for
    each function the recursive functions its calls can reach (itself
    included when recursive); and for each function every function its
    calls can reach.

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
    return recursive, reach, reachable


_PRELUDE = '''
def _idx(arr, i):
    if 0 <= i < len(arr):
        return arr[i]
    raise CInfeasible

def _fail(*reads):
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
# the same for every program: compiled once, run in each program's namespace
_PRELUDE_CODE = compile(_PRELUDE, "<synrec-prelude>", "exec")


def _exec(text: str, namespace: dict) -> None:
    try:
        code = compile(text, "<synrec-compiled>", "exec")
    except SyntaxError as err:  # pragma: no cover - compiler bug guard
        raise InternalError(f"generated code failed to compile: {err}\n{text}")
    exec(code, namespace)


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
    namespace = comp.namespace
    fns = [_FnCompiler(comp, f) for f in program.functions]
    comp.recursive, comp.reach, reachable = _recursive_functions(
        {fc.fn.name: fc.callees for fc in fns}, shape
    )
    # what a memo table needs to be input-only (see the module docstring)
    reads_candidate = {fc.fn.name for fc in fns if fc.reads_candidate}
    built = {program.variant_owner(v).name for fc in fns for v in fc.variants}
    pieces = []
    depth_vars = []
    memos: list[dict] = []
    candidate_memos: list[dict] = []
    for fc in fns:
        name = fc.fn.name
        if name in comp.recursive:
            pieces.append(f"_d_{name} = 0")
            depth_vars.append(f"_d_{name}")
            if fc._memoizable():
                tables = [{} for _ in range(max_depth + 1)]
                namespace[f"_memo_{name}"] = tables
                memos += tables
                if (reachable[name] | {name}) & reads_candidate or (
                    fc.fn.params[0][1].name in built
                ):
                    candidate_memos += tables
        pieces.append(fc.compile())
    if depth_vars:
        pieces.append("def _reset_depths():")
        pieces.append("    global " + ", ".join(depth_vars))
        pieces.append("    " + " = ".join(depth_vars) + " = 0")
    else:
        pieces.append("def _reset_depths():\n    pass")
    exec(_PRELUDE_CODE, namespace)
    _exec("\n".join(pieces), namespace)
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
    return CompiledProgram(namespace, program, memos, candidate_memos, trans, comp, comp.dead_from)

