"""Pretty-printer for programs.

Strict mode emits concrete programs only and is the inverse of the parser:
``parse_program(pretty_print_program(p))`` is structurally equal to ``p``
(spans aside) for a self-contained program.  Names resolve after the
library merge, so a program that calls into a library round-trips through
``load_with_library`` with that library instead.  Debug mode additionally
renders the holes and choices of an expansion (``??#k``,
``choose#k(...)``), and statements in expression position.  The `expand`
subcommand uses it on a validated expansion, which holds no other
synthesis construct.  Its output is a stable dump format, not
re-parseable input.
"""

from __future__ import annotations

from .ast import (
    UNIT,
    AlwaysFail,
    ArrayLit,
    ArrayType,
    Assert,
    BinOp,
    Call,
    Choice,
    Ctor,
    Expr,
    FieldAccess,
    FlexSwitch,
    FuncDecl,
    FuncRef,
    Hole,
    If,
    Index,
    IntLit,
    Let,
    SurfaceProgram,
    Switch,
    TypeExpr,
    UnitLit,
    UnitType,
    UnOp,
    Var,
)
from .errors import PrintError
from .parser import BINARY_PREC

_UNARY_PREC = 7
_POSTFIX_PREC = 8


def print_type(ty: TypeExpr) -> str:
    if isinstance(ty, UnitType):
        return "void"
    if isinstance(ty, ArrayType):
        return f"{print_type(ty.elem)}[]"
    return str(ty)


class _Printer:
    def __init__(self, debug: bool):
        self.debug = debug
        self.lines: list[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("  " * indent + text)

    # -- expressions ---------------------------------------------------------

    def expr(self, e: Expr, min_prec: int = 0) -> str:
        if isinstance(e, Var) or isinstance(e, FuncRef):
            return e.name
        if isinstance(e, IntLit):
            return str(e.value)
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.callee}({args})"
        if isinstance(e, FieldAccess):
            return f"{self.expr(e.base, _POSTFIX_PREC)}.{e.label}"
        if isinstance(e, Ctor):
            fields = ", ".join(f"{l} = {self.expr(v)}" for l, v in e.fields)
            return f"new {e.variant}({fields})"
        if isinstance(e, ArrayLit):
            return "{" + ", ".join(self.expr(x) for x in e.items) + "}"
        if isinstance(e, Index):
            return f"{self.expr(e.base, _POSTFIX_PREC)}[{self.expr(e.index)}]"
        if isinstance(e, Assert):
            return f"assert({self.expr(e.cond)})"
        if isinstance(e, BinOp):
            p = BINARY_PREC[e.op]
            s = f"{self.expr(e.lhs, p)} {e.op} {self.expr(e.rhs, p + 1)}"
            return f"({s})" if p < min_prec else s
        if isinstance(e, UnOp):
            return f"{e.op}{self.expr(e.operand, _UNARY_PREC)}"
        if isinstance(e, AlwaysFail):
            return f"unreachable<{print_type(e.ty)}>"
        if isinstance(e, Hole):
            if self.debug:
                return "??" if e.cp is None else f"??#{e.cp}"
            raise PrintError("cannot print a hole in a concrete program", e.span)
        if isinstance(e, Choice):
            inner = ", ".join(self.expr(a) for a in e.arms)
            if self.debug:
                tag = "" if e.cp is None else f"#{e.cp}"
                return f"choose{tag}({inner})"
            raise PrintError("cannot print a choice in a concrete program", e.span)
        if isinstance(e, (If, Switch, FlexSwitch, Let)):
            if self.debug:
                return self._inline_stmtish(e)
            raise PrintError(
                f"{type(e).__name__} outside statement position is not printable", e.span
            )
        if isinstance(e, UnitLit):
            if self.debug:
                return "()"
            raise PrintError("unit value outside statement position", e.span)
        raise PrintError(f"cannot print node {type(e).__name__}", getattr(e, "span", None))

    def _inline_stmtish(self, e: If | Let | Switch | FlexSwitch) -> str:
        if isinstance(e, If):
            return (
                f"if ({self.expr(e.cond)}) {{ {self.expr(e.then)} }}"
                f" else {{ {self.expr(e.els)} }}"
            )
        if isinstance(e, Let):
            return (
                f"{{ {print_type(e.ty)} {e.name} = {self.expr(e.value)}; "
                f"{self.expr(e.body)} }}"
            )
        if isinstance(e, Switch):
            arms = " ".join(
                f"case {a.variant}: {self.expr(a.body)};" for a in e.arms
            )
            return f"switch ({e.scrutinee}) {{ {arms} }}"
        return f"switch ({e.scrutinee}) {{ case?: {self.expr(e.body)}; }}"

    # -- statements -----------------------------------------------------------

    def body(self, e: Expr, indent: int) -> None:
        """Render an expression as a statement sequence ending the block."""
        while True:
            if isinstance(e, Let):
                if e.name == "_" and e.ty == UNIT:
                    self.stmt_value(e.value, indent)
                else:
                    self.line(
                        indent,
                        f"{print_type(e.ty)} {e.name} = {self.expr(e.value)};",
                    )
                e = e.body
                continue
            break
        if isinstance(e, UnitLit):
            return
        if isinstance(e, Assert):
            self.line(indent, f"{self.expr(e)};")
            return
        if isinstance(e, If):
            self.if_stmt(e, indent)
            return
        if isinstance(e, (Switch, FlexSwitch)):
            self.switch_stmt(e, indent)
            return
        self.line(indent, f"return {self.expr(e)};")

    def stmt_value(self, e: Expr, indent: int) -> None:
        """A unit-valued statement (assert, void call, if, switch)."""
        if isinstance(e, If):
            self.if_stmt(e, indent)
        elif isinstance(e, (Switch, FlexSwitch)):
            self.switch_stmt(e, indent)
        else:
            self.line(indent, f"{self.expr(e)};")

    def if_stmt(self, e: If, indent: int) -> None:
        self.line(indent, f"if ({self.expr(e.cond)}) {{")
        self.body(e.then, indent + 1)
        if isinstance(e.els, UnitLit):
            self.line(indent, "}")
        else:
            self.line(indent, "} else {")
            self.body(e.els, indent + 1)
            self.line(indent, "}")

    def switch_stmt(self, e, indent: int) -> None:
        self.line(indent, f"switch ({e.scrutinee}) {{")
        if isinstance(e, FlexSwitch):
            self.line(indent + 1, "case?:")
            self.body(e.body, indent + 2)
        else:
            for arm in e.arms:
                self.line(indent + 1, f"case {arm.variant}:")
                self.body(arm.body, indent + 2)
        self.line(indent, "}")

    # -- declarations ------------------------------------------------------------

    def func(self, f: FuncDecl) -> None:
        for a in f.annotations:
            self.line(0, f"@{a.name}({', '.join(a.args)})")
        head = ""
        if f.is_harness:
            head += "harness "
        if f.kind in ("generator", "polygen"):
            head += "generator "
        head += f"{print_type(f.ret)} {f.name}"
        if f.type_params:
            head += "<" + ", ".join(f.type_params) + ">"
        params = ", ".join(f"{print_type(t)} {n}" for n, t in f.params)
        self.line(0, f"{head}({params}) {{")
        self.body(f.body, 1)
        self.line(0, "}")

    def program(self, program: SurfaceProgram) -> str:
        for adt in program.adts:
            self.line(0, f"adt {adt.name} {{")
            for v in adt.variants:
                fields = " ".join(f"{print_type(t)} {l};" for l, t in v.fields)
                inner = f" {fields} " if fields else ""
                self.line(1, f"{v.name} {{{inner}}}")
            self.line(0, "}")
            self.line(0, "")
        for f in program.functions:
            self.func(f)
            self.line(0, "")
        return "\n".join(self.lines).rstrip() + "\n"


def pretty_print_program(program: SurfaceProgram, debug: bool = False) -> str:
    """Render a program as canonical source text.

    Raises PrintError on synthesis constructs unless `debug` is set.
    """
    return _Printer(debug).program(program)
