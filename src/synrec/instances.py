"""Template instances that an expansion shares, and its validation.

A generator call is expanded once per key into a `_Template` (see
`expand`): its tree names control points by ids relative to its first
point and fresh names by labels.  Calls whose record types differ only in
their variants share a template, unless it is exact.  Inside a template,
an instance of another template stays a `_Use` reference, so each node is
copied once, when the outermost template is instantiated in the program.

Only the choice arms that the search selects need their nodes, so an
instantiation in the program copies a template's tree down to its
choices (`_materialize`) and leaves each lazy instance inside a choice
arm a `_Use` (a version space's shared member; Polozov and Gulwani,
FlashMeta, OOPSLA 2015).  Its control ids are fixed when it is built, as
are the control space and the read order; `_Use.unfold` copies one level
of it on first demand, and `force` copies a whole tree, for the consumers
that need every node (`synrec expand`, the tests).  The type checks of
`validate_expansion` run once per template that stays a `_Use`, not once
per instance: an instance is a renaming of its template.
"""

from __future__ import annotations

from .ast import (
    Call,
    Choice,
    Ctor,
    Expr,
    FlexSwitch,
    Hole,
    Let,
    SurfaceProgram,
    Switch,
    SwitchArm,
    TypeExpr,
    Var,
    children,
    rebuild,
    replace,
)
from .errors import InternalError, TypeCheckError
from .typesys import Typer, TypeEnv


class _Template:
    """One generator call expanded once, for every call with the same key.

    `tree` (None when the expansion failed with `error`) names control
    points by ids relative to the template's first point, and fresh names
    by the labels in `labels`, one for each entry of `bases`, the base
    names of the `fresh` calls in the order they were made.  `points`
    lists the template's own control points (relative ids and origin
    trails) and the `_Use` of every template it used, in creation order;
    `size` counts them all.  `dynamic` holds the ids of the tree's nodes
    that an instance must copy: those with a control point, a label or a
    `_Use` below them.  `required` is the type the call was expanded at,
    and `env` the types of the names of its key that are variables, as
    the first call with the key had them: a later call may have records
    of other variants with the same fields there, unless the template is
    `exact`, whose expansion can tell the variants apart.  An
    instance in a choice arm stays a `_Use` when its template is `lazy`:
    when its tree has a choice or an instance of its own and it holds at
    least `_LAZY_POINTS` control points, work that the search may never
    select.
    """

    __slots__ = (
        "tree", "error", "points", "size", "bases", "labels", "dynamic", "required", "env",
        "facts", "lazy", "held", "exact",
    )

    def __init__(self, tree, error, points, size, bases, labels, required, env, exact):
        self.tree = tree
        self.error = error
        self.points = points
        self.size = size
        self.bases = bases
        self.labels = labels
        self.required = required
        self.env = env
        self.exact = exact
        self.facts = None  # see `compiled._template_facts`
        self.dynamic: set[int] = set()
        self.held = [None, None]  # see `_held`
        self.lazy = (
            tree is not None and _mark_dynamic(tree, self.dynamic) > 1 and size >= _LAZY_POINTS
        )


# A lazy instance costs a call each time it runs; below this many control
# points, that costs the search more than copying and compiling the
# instance up front costs the expansion (measured on the scaling family
# and `lang`).
_LAZY_POINTS = 8


class _Use(Expr):
    """A template's instance, kept as a reference.

    Its control ids start at `offset`, `names` maps the template's labels
    (and, in the program, the labels of every enclosing template) to the
    enclosing frame's names, and `trail` is the call site's trail there.
    Inside a template it stands for the instance itself, so an instance is
    copied only when an enclosing instance is copied into the program.  In
    the program it sits in a choice arm, at its absolute ids and with real
    names, until `unfold` copies it.
    """

    __slots__ = ("template", "offset", "names", "trail", "_unfolded")

    def __init__(self, template: _Template, offset: int, names: dict, trail: tuple):
        self.template = template
        self.offset = offset
        self.names = names
        self.trail = trail
        self._unfolded = None

    def unfold(self) -> Expr:
        """The instance in the program, copied once and then kept: the
        template's tree down to its choices, whose arms keep their
        instances as `_Use`s."""
        if self._unfolded is None:
            tpl = self.template
            self._unfolded = _materialize(tpl.tree, self.offset, self.names, tpl.dynamic, False)
        return self._unfolded

    @property
    def ty(self) -> TypeExpr:
        return self.template.required

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return force(self) == force(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(force(self))


# the field of a node that holds a name a label can stand for
_NAME_FIELDS = {Var: "name", Let: "name", Call: "callee", Switch: "scrutinee", FlexSwitch: "scrutinee"}


def _mark_dynamic(e: Expr, dynamic: set[int]) -> int:
    """Add the ids of `e`'s dynamic nodes to `dynamic`; 2 when `e` holds a
    choice or a `_Use`, else 1 when it is dynamic, else 0."""
    t = type(e)
    found = 2 if t is Choice or t is _Use else int(t is Hole)
    name = _NAME_FIELDS.get(t)
    if name is not None and getattr(e, name).startswith("#") and not found:
        found = 1
    if t is not _Use:
        for c in children(e):
            sub = _mark_dynamic(c, dynamic)
            if sub > found:
                found = sub
    if found:
        dynamic.add(id(e))
    return found


def _materialize(e: Expr, base: int, names: dict, dynamic: set[int], arm) -> Expr:
    """Copy a template tree with control ids shifted by `base` and labels
    renamed by `names`, instantiating every `_Use` in it.  Subtrees that
    hold none of these are shared with the template.  With `arm` None
    every instance is copied; else a lazy instance inside a choice arm
    (`arm` True below a choice) stays a `_Use` of the program."""
    if id(e) not in dynamic:
        return e
    t = type(e)
    if t is _Use:
        tpl = e.template
        inner = dict(names)
        inner.update([(l, names.get(n, n)) for l, n in e.names.items()])
        if arm and tpl.lazy:
            return _Use(tpl, base + e.offset, inner, ())
        return _materialize(tpl.tree, base + e.offset, inner, tpl.dynamic, arm)
    if t is Choice:
        sub = None if arm is None else True
        return Choice(
            tuple([_materialize(a, base, names, dynamic, sub) for a in e.arms]),
            e.cp + base,
            span=e.span,
        )
    if t is Ctor:
        return Ctor(
            e.variant,
            tuple([(l, _materialize(v, base, names, dynamic, arm)) for l, v in e.fields]),
            span=e.span,
        )
    if t is Hole:
        return Hole(e.cp + base, e.ty, span=e.span)
    if t is Var:
        return Var(names.get(e.name, e.name), span=e.span)
    if t is Let:
        return Let(
            names.get(e.name, e.name),
            e.ty,
            _materialize(e.value, base, names, dynamic, arm),
            _materialize(e.body, base, names, dynamic, arm),
            span=e.span,
        )
    if t is Call:
        return Call(
            names.get(e.callee, e.callee),
            tuple([_materialize(a, base, names, dynamic, arm) for a in e.args]),
            span=e.span,
        )
    if t is Switch:
        return Switch(
            names.get(e.scrutinee, e.scrutinee),
            tuple(
                [
                    SwitchArm(a.variant, _materialize(a.body, base, names, dynamic, arm))
                    for a in e.arms
                ]
            ),
            span=e.span,
        )
    return rebuild(e, [_materialize(c, base, names, dynamic, arm) for c in children(e)])


def force(e: Expr) -> Expr:
    """`e` with every `_Use` in it copied out: the expansion in full."""
    if type(e) is _Use:
        return _materialize(e, 0, {}, {id(e)}, None)
    return rebuild(e, [force(c) for c in children(e)])


def _held(e: Expr, arm: bool) -> int:
    """How many instances stay `_Use`s when `e` is copied with `arm` (see
    `_materialize`) and then forced in full."""
    t = type(e)
    if t is _Use:
        tpl = e.template
        kept = arm and tpl.lazy  # then unfolded as a tree of its own
        arm = arm and not kept
        if tpl.held[arm] is None:
            tpl.held[arm] = _held(tpl.tree, arm)
        return kept + tpl.held[arm]
    arm = arm or t is Choice
    return sum([_held(c, arm) for c in children(e)])


def instance_counts(expanded: "ExpandedProgram") -> tuple[int, int]:
    """How many instances the expansion keeps as `_Use`s, counted as if
    it were forced in full, and how many of them have been unfolded."""
    total = unfolded = 0
    stack = [(f.body, True) for f in expanded.functions]
    while stack:
        e, spine = stack.pop()
        if type(e) is _Use:
            total += _held(e, True) if spine else 0
            if e._unfolded is not None:
                unfolded += 1
                stack.append((e._unfolded, False))
        else:
            stack.extend([(c, spine) for c in children(e)])
    return total, unfolded


def force_expansion(expanded: "ExpandedProgram") -> "ExpandedProgram":
    """The expansion with every function forced in full (see `force`)."""
    funcs = tuple(replace(f, body=force(f.body)) for f in expanded.functions)
    return replace(expanded, program=replace(expanded.program, functions=funcs))


class _Postconditions(Typer):
    """The expander's postconditions, checked in the typing pass that
    re-types the expansion: no synthesis construct and no call of a
    generator survives, and every control node has an id of the frame's
    control space that no other node has.  A `_Use` takes the ids of its
    template's points, and its template is checked once, in a frame of
    its own, under the types of its key (`_Template.env`)."""

    def __init__(self, program: SurfaceProgram, size: int, done: set, fn: str):
        self.program = program
        self.standard = {f.name for f in program.functions}
        self.size = size
        self.done = done  # ids of the templates checked so far
        self.seen: set[int] = set()
        self.order: list[int] = []  # `seen`, in the order the pass met them
        self.fn = fn

    def control(self, e: Expr) -> None:
        if e.cp is None:
            raise InternalError("control node without an id")
        self.take(e.cp, e.cp + 1)

    def take(self, lo: int, hi: int) -> None:
        ids = range(lo, hi)
        if not self.seen.isdisjoint(ids):
            raise InternalError(f"duplicate control point id in {lo}..{hi - 1}")
        if not 0 <= lo <= hi <= self.size:
            raise InternalError("control nodes reference unknown points")
        self.seen.update(ids)
        self.order.extend(ids)

    def try_type(self, env, e: Expr) -> TypeExpr | None:
        # An equality types an operand bottom up first, and checks it
        # again if that fails; the second visit must not meet the ids of
        # the first.
        mark = len(self.order)
        found = super().try_type(env, e)
        if found is None:
            self.seen.difference_update(self.order[mark:])
            del self.order[mark:]
        return found

    def type_hole(self, env, e: Hole) -> TypeExpr:
        self.control(e)
        return super().type_hole(env, e)

    def type_choice(self, env, e: Choice) -> TypeExpr:
        self.control(e)
        return super().type_choice(env, e)

    def check_choice(self, env, e: Choice, expected) -> None:
        self.control(e)
        super().check_choice(env, e, expected)

    def type_call(self, env, e: Call) -> TypeExpr:
        if e.callee not in self.standard:
            raise InternalError(
                f"call to non-standard function {e.callee!r} survived expansion"
            )
        return super().type_call(env, e)

    def type_deferred(self, env, e: Expr) -> TypeExpr:
        tpl = e.template
        self.take(e.offset, e.offset + tpl.size)
        if id(tpl) not in self.done:
            inner = _Postconditions(self.program, tpl.size, self.done, self.fn)
            inner.check(TypeEnv(self.program, dict(tpl.env)), tpl.tree, tpl.required)
            self.done.add(id(tpl))
        return tpl.required

    def type_psc(self, env, e: Expr) -> TypeExpr:
        raise InternalError(f"PSC survived expansion in {self.fn!r}")


def validate_expansion(expanded: "ExpandedProgram") -> None:
    """Assert the expander's postconditions, and that the expansion
    type-checks; violations are internal bugs."""
    ids = [p.id for p in expanded.control_space]
    if ids != list(range(len(ids))):
        raise InternalError("control point ids are not dense")
    program = expanded.program
    check = _Postconditions(program, len(ids), set(), "")
    for f in expanded.functions:
        check.fn = f.name
        try:
            check.check(TypeEnv(program, dict(f.params)), f.body, f.ret)
        except TypeCheckError as err:
            raise err.located(f.source)
