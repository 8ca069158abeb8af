"""Counterexample-guided inductive synthesis over the finite control space.

Both halves run one executor: the expanded program compiled once per run
(see `compiled`), holes and choices included.  The inductive step is a
deterministic, complete backtracking search with lazy binding: control
points are bound to their first domain value when evaluation first reads
them, and backtracking advances the most recently bound point that still
has untried values, skipping the values that fail at the point's own read
(see `LazyBinder`).  An assignment is a plain dict from control id to
value everywhere: the binder is one, and the candidate it stands for is
`expanded.defaults | binder`.  Verification is bounded checking of the
plain program under the candidate over depth-major enumerated native
inputs, so the first counterexample found is depth-minimal.  It has two
strategies with the same verdict and counterexample: exhaustive
enumeration of every input, and, for the candidates of a decomposed run
that pass `value_class_blocker`, a bottom-up check of one witness tree
per class of children that the plain program cannot tell apart (see
`_verify_value_classes`).  Each counterexample is re-run once on the
reference evaluator.

When inductive decomposition produced a morphism, switch arms of the
function under synthesis share no control points with each other, so the
inductive step solves each arm against only the counterexamples rooted at
its variant.  Each arm keeps its search across iterations: an arm without
a new counterexample keeps its solution, and an arm with one resumes its
search from that solution, which is where a fresh search on the longer
list would get to by the same steps (see `_search`).  If the arm
solutions bind a common point, or their merge fails a counterexample, the
run falls back to the joint search, preserving completeness.  An arm with
no solution needs no fallback: the search is complete, and every joint
assignment must pass that arm's counterexamples too.

A run counts straight into the `SynthesisStats` it returns.  Its
`per_arm` holds one `ArmStatus` per arm, which is all the per-arm state:
the arm's search, how many of the arm's counterexamples that search
passes, its time, and whether it is solved.  A fallback only stops the
per-arm search, so each arm keeps the verdict of its last search.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field, replace

from .ast import (
    AdtType,
    AlwaysFail,
    ArrayLit,
    Assert,
    BoxMake,
    Call,
    Choice,
    Expr,
    FieldsOf,
    FlexSwitch,
    FuncDecl,
    GenLambda,
    Hole,
    If,
    Index,
    IntLit,
    Let,
    PrimType,
    SurfaceProgram,
    TypeExpr,
    UnitLit,
    UnknownCtor,
    Var,
    children,
    rebuild,
    walk,
)
from .compiled import CAssertFail, CExhausted, CInfeasible, CompiledProgram, compile_concrete
from .errors import InternalError, SynrecError
from .evaluator import (
    EvalLimits,
    Outcome,
    VRecord,
    evaluate_harness,
    format_value,
)
from .expand import ControlPoint, ExpandedProgram, ExpansionContext
from .instances import _Use, instance_counts
from .indecomp import (
    ClassificationReport,
    SpecShape,
    apply_inductive_decomposition,
)
from .typesys import typecheck_function

log = logging.getLogger("synrec")


@dataclass(frozen=True)
class SynthesisConfig:
    """Bounds and knobs for one synthesis run; all defaults are the
    smallest values at which the running example is distinguishable."""

    input_depth: int = 3
    int_domain: tuple[int, ...] = (0, 1, 2)
    hole_lo: int = 0
    hole_hi: int = 3
    inline_bound: int = 3
    # None: interpreters get input_depth + 2 frames (at least 5), so they can
    # always consume fully enumerated inputs.
    unroll_depth: int | None = None
    timeout_secs: float = 300.0
    indecomp: bool = True

    def __post_init__(self):
        for name in ("input_depth", "inline_bound", "unroll_depth"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SynrecError(f"{name.replace('_', ' ')} must be positive, got {value}")
        if not self.int_domain:
            raise SynrecError("int domain is empty")
        if self.hole_hi < self.hole_lo:
            raise SynrecError(f"hole domain {self.hole_lo}..{self.hole_hi} is empty")

    @property
    def effective_unroll(self) -> int:
        if self.unroll_depth is not None:
            return self.unroll_depth
        return max(5, self.input_depth + 2)

    def expansion_context(self) -> ExpansionContext:
        return ExpansionContext(
            inline_bound=self.inline_bound,
            hole_lo=self.hole_lo,
            hole_hi=self.hole_hi,
        )

    def eval_limits(self) -> EvalLimits:
        return EvalLimits(max_depth=self.effective_unroll)


class SynthesisTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Bounded-depth value enumeration


class Enumerator:
    """Depth-major enumeration of native values (see `compiled`), with
    per-level caching so deep levels share substructure with shallow ones."""

    def __init__(self, program: SurfaceProgram, cfg: SynthesisConfig):
        self.program = program
        self.cfg = cfg
        self._exact: dict[tuple, list] = {}

    def exact(self, ty: TypeExpr, depth: int) -> list:
        key = (ty, depth)
        cached = self._exact.get(key)
        if cached is None:
            cached = list(self.iter_exact(ty, depth))
            self._exact[key] = cached
        return cached

    def iter_exact(self, ty: TypeExpr, depth: int, layer=None):
        """Values of `ty` whose constructor-nesting depth is exactly `depth`.

        Primitive leaves have depth 0; a record is one deeper than its
        deepest field, so `NumS(v = 0)` sits at depth 1.  A field's values
        come from `layer(field type, depth)`, `exact` by default.
        """
        layer = layer or self.exact
        if isinstance(ty, PrimType):
            if depth == 0:
                if ty.name == "bit":
                    yield 0
                    yield 1
                else:
                    yield from self.cfg.int_domain
            return
        if depth < 1:
            return
        if not isinstance(ty, AdtType):
            raise SynrecError(f"cannot enumerate values of type {ty}")
        adt = self.program.adt(ty.name)
        if adt is None:
            raise SynrecError(f"cannot enumerate values of unknown type {ty}")
        for variant in adt.variants:
            ftys = tuple(t for _, t in variant.fields)
            if not ftys:
                if depth == 1:
                    yield (variant.name,)
                continue
            child_depth = depth - 1
            pools = []
            shallow = []
            for ft in ftys:
                # cumulative depth-major pool; the entries below child_depth
                # form a prefix, so "some child at max depth" is an index test
                pool: list = []
                for d in range(0, child_depth):
                    pool.extend(layer(ft, d))
                shallow.append(len(pool))
                pool.extend(layer(ft, child_depth))
                pools.append(pool)
            if any(not p for p in pools):
                continue
            yield from self._combos(variant.name, pools, shallow)

    def _combos(self, name: str, pools, shallow):
        """Product of pools, skipping combinations where every component is
        shallow; same sequence as filtering the plain product."""
        if len(pools) == 1:
            for v in pools[0][shallow[0]:]:
                yield (name, v)
            return
        if len(pools) == 2:
            p0, p1 = pools
            s1 = shallow[1]
            deep1 = p1[s1:]
            for i0, v0 in enumerate(p0):
                inner = p1 if i0 >= shallow[0] else deep1
                for v1 in inner:
                    yield (name, v0, v1)
            return
        if len(pools) == 3:
            p0, p1, p2 = pools
            s0, s1, s2 = shallow
            deep2 = p2[s2:]
            for i0, v0 in enumerate(p0):
                d0 = i0 >= s0
                for i1, v1 in enumerate(p1):
                    inner = p2 if d0 or i1 >= s1 else deep2
                    for v2 in inner:
                        yield (name, v0, v1, v2)
            return
        for combo in itertools.product(*(list(enumerate(p)) for p in pools)):
            if any(i >= s for (i, _), s in zip(combo, shallow)):
                yield (name,) + tuple(v for _, v in combo)

    def iter_cumulative(self, ty: TypeExpr, depth: int):
        """All values up to `depth`, depth-major; the deepest level streams."""
        if isinstance(ty, PrimType):
            yield from self.iter_exact(ty, 0)
            return
        for d in range(1, depth):
            yield from self.exact(ty, d)
        yield from self.iter_exact(ty, depth)


def enumerate_values(
    program: SurfaceProgram, ty: TypeExpr, depth: int, cfg: SynthesisConfig
) -> list:
    """All values of `ty` with constructor-nesting depth <= `depth`,
    depth-major then declaration-order, duplicate-free, in the reference
    evaluator's form."""
    values = Enumerator(program, cfg).iter_cumulative(ty, depth)
    return [_to_reference(program, v) for v in values]


def iter_inputs(program: SurfaceProgram, harness: FuncDecl, cfg: SynthesisConfig):
    """Joint enumeration of native harness arguments, ordered by max
    parameter depth."""
    en = Enumerator(program, cfg)
    ptys = [t for _, t in harness.params]
    if not ptys:
        yield ()
        return
    if len(ptys) == 1:
        for v in en.iter_cumulative(ptys[0], cfg.input_depth):
            yield (v,)
        return
    # Joint depth ordering over ADT-typed parameters; primitive parameters
    # contribute their (depth-independent) domains at every level.
    adt_slots = [i for i, t in enumerate(ptys) if not isinstance(t, PrimType)]
    prim_pools = {
        i: en.exact(t, 0) for i, t in enumerate(ptys) if isinstance(t, PrimType)
    }
    if not adt_slots:
        yield from itertools.product(*(prim_pools[i] for i in range(len(ptys))))
        return
    for total in range(1, cfg.input_depth + 1):
        for dvec in itertools.product(range(1, total + 1), repeat=len(adt_slots)):
            if max(dvec) != total:
                continue
            pools = []
            slot_depth = dict(zip(adt_slots, dvec))
            for i, t in enumerate(ptys):
                pools.append(prim_pools[i] if i in prim_pools else en.exact(t, slot_depth[i]))
            if any(not p for p in pools):
                continue
            yield from itertools.product(*pools)


# ---------------------------------------------------------------------------
# Lazy-binding backtracking search


class LazyBinder(dict):
    """Control point -> value, bound in first-read order: reading an
    unbound point binds it to its first domain value and records it on
    the trail.  Compiled code reads through `__getitem__`, so a read of a
    bound point makes no Python call.  `advance` flips the most recent
    point with untried values and discards later bindings.

    `dead_from` maps a point to the least value from which every value
    fails at the point's own read (`CompiledProgram.dead_from`).  Such a
    value makes a candidate that fails where the one just tried failed, so
    `advance` never flips a point to it, and counts the values it leaves
    untried in `skipped`.  The first binding stays the domain's first
    value, so the read order and every other candidate stay as they are."""

    __slots__ = ("space", "trail", "dead_from", "skipped")

    def __init__(self, space: tuple[ControlPoint, ...], dead_from: dict[int, int] | None = None):
        super().__init__()
        self.space = space
        self.trail: list[int] = []
        self.dead_from = {} if dead_from is None else dead_from
        self.skipped = 0

    def __missing__(self, cp: int) -> int:
        v = self[cp] = self.space[cp].lo
        self.trail.append(cp)
        return v

    def advance(self) -> bool:
        trail = self.trail
        while trail:
            cp = trail[-1]
            value, hi = self[cp] + 1, self.space[cp].hi
            if value <= hi and value < self.dead_from.get(cp, value + 1):
                self[cp] = value
                return True
            self.skipped += hi + 1 - value
            trail.pop()
            del self[cp]
        return False


def _passes(compiled: CompiledProgram, run, cexs: list[tuple], stats: SynthesisStats) -> bool:
    """Run `run`, the compiled harness, on each counterexample in turn,
    counting every run; False at the first failure.

    Memo entries replay control reads that stay bound until a run fails;
    after that the binder may change a binding, so the candidate's entries
    are dropped along with the depth counters the failure left raised."""
    for args in cexs:
        stats.search_evaluations += 1
        try:
            run(*args)
        except _FAILURES:
            compiled.drop_candidate()
            return False
    return True


def _search(
    expanded: ExpandedProgram,
    compiled: CompiledProgram,
    cexs: list[tuple],
    deadline: float | None,
    stats: SynthesisStats,
    binder: LazyBinder | None = None,
    passed: int = 0,
) -> tuple[LazyBinder, bool]:
    """Complete deterministic search over assignments reachable by reads.

    Returns the binder and whether its bindings pass every counterexample.
    Given `binder`, whose bindings a search on `cexs[:passed]` returned as
    passing, the search resumes from there, and its first candidate runs
    only `cexs[passed:]`.  A fresh search on `cexs` takes the same steps
    as that earlier search up to those bindings (each candidate before
    them fails one of the first `passed` counterexamples, the same way),
    then passes the first `passed` again: so the resumed search ends with
    the same binder, and the two together make the fresh search's runs.
    """
    if binder is None:
        binder = LazyBinder(expanded.control_space, compiled.dead_from)
    if not cexs:
        return binder, True
    compiled.bind_controls(binder.__getitem__)
    run = compiled.func(expanded.program.harnesses[0].name)
    todo = cexs[passed:]
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisTimeout
        if _passes(compiled, run, todo, stats):
            return binder, True
        skipped = binder.skipped
        more = binder.advance()
        stats.skipped_candidates += binder.skipped - skipped
        if not more:
            return binder, False
        todo = cexs


def synthesize_inductive(
    expanded: ExpandedProgram,
    compiled: CompiledProgram,
    cexs: list[tuple],
    deadline: float | None = None,
    stats: SynthesisStats | None = None,
) -> dict[int, int] | None:
    """Find a total control assignment under which the compiled program
    (`expanded`, or its decomposition) passes every counterexample (native
    harness arguments), or None when the (finite) space has no solution."""
    stats = stats if stats is not None else SynthesisStats()
    binder, found = _search(expanded, compiled, cexs, deadline, stats)
    if not found:
        return None
    return expanded.defaults | binder


# ---------------------------------------------------------------------------
# Bounded verification

EXHAUSTIVE = "exhaustive"
VALUE_CLASS = "value-class"


@dataclass
class VerifyResult:
    passed: bool
    counterexample: dict | None = None
    failure: Outcome | None = None
    evaluations: int = 0
    strategy: str = EXHAUSTIVE
    # the counterexample as native harness arguments
    args: tuple | None = None


_CHUNK = 65536


def verify(
    expanded: ExpandedProgram,
    phi: dict[int, int],
    cfg: SynthesisConfig,
    value_classes: SpecShape | None = None,
    deadline: float | None = None,
    compiled: CompiledProgram | None = None,
) -> VerifyResult:
    """Bounded check of the plain program under a total assignment.

    Returns the first failing input in depth-major enumeration order
    (depth-minimal by construction).  Candidate-infeasible and resource
    outcomes count as failures.  With `value_classes`, the inductive shape
    of a decomposition whose decomposed program passes
    `value_class_blocker`, the candidate is checked by value classes;
    otherwise every input is checked.  Both strategies give the same
    verdict and the same counterexample.  `compiled` runs the plain
    program: compiled plain, or decomposed with its box builder bound to
    the translation (`CompiledProgram.bind_boxes`).
    """
    harness = expanded.program.harnesses[0]
    if compiled is None:
        compiled = compile_concrete(expanded.program, None, cfg.effective_unroll)
    compiled.bind_controls(phi.__getitem__)
    if value_classes is not None:
        return _verify_value_classes(compiled, value_classes, cfg, deadline, harness)
    return _verify_compiled(compiled, cfg, deadline, harness)


# IndexError comes from statically-indexed array literals going out of
# bounds, the compiled form of an infeasible candidate.
_FAILURES = (CAssertFail, CInfeasible, IndexError, CExhausted)


def _failure(err: Exception) -> Outcome:
    """The outcome a compiled-code exception in `_FAILURES` stands for."""
    if isinstance(err, CAssertFail):
        return Outcome("assert_failed", assert_id=err.aid)
    if isinstance(err, CExhausted):
        return Outcome("resource", detail="recursion depth")
    return Outcome("infeasible", detail="candidate infeasible")


def _to_reference(program: SurfaceProgram, value):
    """Convert a native value (variant-tagged tuple) to the reference form."""
    if isinstance(value, tuple):
        if value and isinstance(value[0], str):
            labels = program.variant_owner(value[0]).variant(value[0]).fields
            return VRecord(
                value[0],
                {l: _to_reference(program, v) for (l, _), v in zip(labels, value[1:])},
            )
        return tuple(_to_reference(program, v) for v in value)
    return value


def _counterexample(program, harness, args, failure, evals, strategy) -> VerifyResult:
    sigma = {n: _to_reference(program, v) for (n, _), v in zip(harness.params, args)}
    return VerifyResult(False, sigma, failure, evals, strategy, args)


def _verify_compiled(prog, cfg, deadline, harness):
    """Exhaustive check: every input up to the bound, in enumeration order."""
    runner = prog.func(harness.name)
    evals = 0
    for args in iter_inputs(prog.program, harness, cfg):
        if evals % _CHUNK == 0:
            prog.clear_memos()
            if deadline is not None and time.monotonic() > deadline:
                raise SynthesisTimeout
        evals += 1
        try:
            runner(*args)
        except _FAILURES as err:
            return _counterexample(
                prog.program, harness, args, _failure(err), evals, EXHAUSTIVE
            )
    return VerifyResult(True, evaluations=evals)


def _verify_value_classes(prog, shape, cfg, deadline, harness):
    """Bottom-up check of a decomposed morphism candidate by value classes.

    Under `value_class_blocker`'s conditions the plain program observes a
    source-typed child only through ``interp_s(child)`` and
    ``interp_d(trans(child))``, each at a nesting fixed by the child's
    position.  A child's class is therefore the tuple of those outcomes at
    every nesting the depth limit allows: values, and where the limit is
    reached, the resource failure (so a class holds the depth of the
    recursion over the child as well as its value).  The class of a tree
    follows from its root and the classes of its children, so one witness
    per class suffices: the first tree of the class in depth-major order.

    Level k = 1..d runs the harness on every tree whose children are class
    witnesses of depth <= k-1, at least one of depth exactly k-1, in the
    exhaustive enumeration's order, and classifies those trees only once
    all of them passed.  Every tree of depth k behaves like
    the tree of its children's witnesses, which sorts no later, and every
    level is checked only after all smaller ones passed; so the first
    failure found here is the exhaustive check's first failure.
    """
    max_depth = cfg.effective_unroll
    program = prog.program
    en = Enumerator(program, cfg)
    src = AdtType(shape.source_adt)
    evals = 0

    def call_at(name, depth, arg):
        """One compiled call: (result, None), or (None, failure outcome)."""
        nonlocal evals
        evals += 1
        try:
            return prog.call_at(name, depth, arg), None
        except _FAILURES as err:
            return None, _failure(err)

    def observe(name, arg):
        # Outcomes from the deepest nesting up.  Running out of depth at a
        # nesting implies it at every deeper one, and any other outcome is
        # the same at every shallower one, so the scan stops there.  A
        # child is met at nesting 1 or deeper; nesting 0 adds nothing, since
        # only trees that passed the harness become witnesses.
        seen = []
        for n in range(max_depth - 1, 0, -1):
            seen.append(call_at(name, n, arg))
            failure = seen[-1][1]
            if failure is None or failure.kind != "resource":
                break
        return seen

    def class_of(tree):
        made = observe(shape.trans, tree)
        observed_d = ()
        if made and made[-1][1] is None:
            observed_d = tuple(observe(shape.interp_d, made[-1][0]))
        # the translation itself is seen only through interp_d
        return (
            tuple(observe(shape.interp_s, tree)),
            tuple(failure for _, failure in made),
            observed_d,
        )

    witnesses: list[list] = [[]]  # witnesses[d]: classes first met at depth d

    def layer(ft, d):
        # the enumerator's pools, with class witnesses for source fields
        return witnesses[d] if ft == src else en.exact(ft, d)

    seen: set = set()
    for level in range(1, cfg.input_depth + 1):
        last = level == cfg.input_depth
        trees: list = []
        for tree in en.iter_exact(src, level, layer):
            if deadline is not None and time.monotonic() > deadline:
                raise SynthesisTimeout
            _, failure = call_at(harness.name, 0, tree)
            if failure is not None:
                return _counterexample(
                    program, harness, (tree,), failure, evals, VALUE_CLASS
                )
            if not last:
                trees.append(tree)
        # only a level that passed needs its classes
        fresh: list = []
        for tree in trees:
            if deadline is not None and time.monotonic() > deadline:
                raise SynthesisTimeout
            key = class_of(tree)
            if key not in seen:
                seen.add(key)
                fresh.append(tree)
        witnesses.append(fresh)
    return VerifyResult(True, evaluations=evals, strategy=VALUE_CLASS)


# ---------------------------------------------------------------------------
# Concretization


def _is_pure(e: Expr) -> bool:
    """Conservatively pure: dropping it cannot change observable outcomes."""
    return not any(
        isinstance(n, (Call, Index, Assert, AlwaysFail, BoxMake, Hole, Choice))
        for n in walk(e)
    )


def simplify_expr(e: Expr) -> Expr:
    out = rebuild(e, [simplify_expr(c) for c in children(e)])
    if isinstance(out, If) and isinstance(out.cond, IntLit):
        return out.then if out.cond.value != 0 else out.els
    if isinstance(out, Index) and isinstance(out.base, ArrayLit) and isinstance(out.index, IntLit):
        items = out.base.items
        k = out.index.value
        if 0 <= k < len(items) and all(_is_pure(x) for i, x in enumerate(items) if i != k):
            return items[k]
    if isinstance(out, Let):
        if out.name == "_" and isinstance(out.value, UnitLit):
            return out.body
        used = any(isinstance(n, Var) and n.name == out.name for n in walk(out.body))
        if not used and out.name != "_" and _is_pure(out.value):
            return out.body
    return out


_CONCRETE_FORBIDDEN = (Hole, Choice, BoxMake, GenLambda, FieldsOf, FlexSwitch, UnknownCtor)


def concretize(expanded: ExpandedProgram, phi: dict[int, int]) -> SurfaceProgram:
    """Substitute a total assignment and clean up the result.

    Holes become literals and choices their selected arm.  The output
    contains only standard expressions, type-checks at every declared
    signature, and keeps let bindings whose values could have observable
    effects.
    """

    def go(e: Expr) -> Expr:
        if isinstance(e, Hole):
            return IntLit(phi[e.cp], span=e.span)
        if isinstance(e, Choice):
            return go(e.arms[phi[e.cp]])
        if isinstance(e, _Use):
            return go(e.unfold())
        return rebuild(e, [go(c) for c in children(e)])

    funcs = tuple(replace(f, body=simplify_expr(go(f.body))) for f in expanded.functions)
    out = SurfaceProgram(expanded.program.adts, funcs)
    for f in out.functions:
        for node in walk(f.body):
            if isinstance(node, _CONCRETE_FORBIDDEN):
                raise InternalError(
                    f"concretize left a {type(node).__name__} node in {f.name!r}"
                )
        typecheck_function(out, f)
    return out


# ---------------------------------------------------------------------------
# The CEGIS loop


@dataclass
class ArmStatus:
    """One switch arm of a decomposed morphism in the per-arm search."""

    variant: str
    solved: bool = False
    ms: float = 0.0
    # the arm's search, whose bindings pass its first `passed` counterexamples
    binder: LazyBinder | None = field(default=None, repr=False, compare=False)
    passed: int = 0


# The layers of one synthesis, in pipeline order, as `phases_ms` names them.
PHASES = ("parse", "expand", "decompose", "compile", "search", "verify", "concretize")


def add_phase(phases: dict | None, name: str, start: float) -> float:
    """Add the time since `start` (a `perf_counter` reading) to `phases[name]`,
    in seconds, and return the clock's reading."""
    now = time.perf_counter()
    if phases is not None:
        phases[name] += now - start
    return now


@dataclass
class SynthesisStats:
    iterations: int = 0
    # harness runs of the inductive search, and of the bounded checks
    search_evaluations: int = 0
    verify_evaluations: int = 0
    # candidates the search never ran, since they fail at a read where the
    # candidate before them failed (see `LazyBinder`)
    skipped_candidates: int = 0
    counterexamples: list[str] = field(default_factory=list)
    # from the entry of `run_cegis`: parse and expand are not in it
    wall_ms: int = 0
    per_arm: list[ArmStatus] = field(default_factory=list)
    # seconds spent in each of `PHASES`, parse and expand included
    phases: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    # how the last check ran, and why not by value classes
    verify_strategy: str = EXHAUSTIVE
    verify_reason: str | None = None
    # the run's expansion, and how many of its instances were compiled,
    # for `arm_instances`
    run: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def candidate_evaluations(self) -> int:
        return self.search_evaluations + self.verify_evaluations

    @property
    def arm_instances(self) -> dict[str, int]:
        """The template instances that stay `_Use`s in choice arms: how
        many the expansion holds, counted as if it were forced in full, and
        how many of them have been unfolded and compiled so far."""
        if self.run is None:
            return {"total": 0, "unfolded": 0, "compiled": 0}
        expanded, compiled = self.run
        total, unfolded = instance_counts(expanded)
        return {"total": total, "unfolded": unfolded, "compiled": compiled}

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "candidate_evaluations": self.candidate_evaluations,
            "search_evaluations": self.search_evaluations,
            "verify_evaluations": self.verify_evaluations,
            "skipped_candidates": self.skipped_candidates,
            "counterexamples": list(self.counterexamples),
            "wall_ms": self.wall_ms,
            "per_arm": [
                {"variant": a.variant, "solved": a.solved, "ms": round(a.ms, 3)}
                for a in self.per_arm
            ],
            "phases_ms": {k: round(v * 1000, 3) for k, v in self.phases.items()},
            "verify_strategy": self.verify_strategy,
            "verify_reason": self.verify_reason,
            "arm_instances": self.arm_instances,
        }


SOLVED = "solved"
UNSAT = "unsat"
TIMEOUT = "timeout"


@dataclass
class SynthesisResult:
    status: str
    assignment: dict[int, int] | None
    solution: SurfaceProgram | None
    stats: SynthesisStats

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


def _sigma_key(sigma: dict) -> str:
    return ";".join(f"{k}={format_value(v)}" for k, v in sorted(sigma.items()))


def _solve_per_arm(
    expanded: ExpandedProgram,
    compiled: CompiledProgram,
    shape: SpecShape,
    cexs: list[tuple],
    deadline: float | None,
    stats: SynthesisStats,
) -> dict[int, int] | None | str:
    """Per-arm inductive step over the arms in `stats.per_arm`; returns phi,
    None (unsat), or "fallback"."""
    harness = expanded.program.harnesses[0]
    root = [n for n, _ in harness.params].index(shape.ast_param)
    groups: dict[str, list[tuple]] = {}
    for args in cexs:
        groups.setdefault(args[root][0], []).append(args)
    for arm in stats.per_arm:
        arm_cexs = groups.get(arm.variant, [])
        # the arm's counterexamples only ever grow at the end
        if arm.passed == len(arm_cexs):
            continue
        start = time.monotonic()
        try:
            binder, found = _search(
                expanded, compiled, arm_cexs, deadline, stats, arm.binder, arm.passed
            )
        finally:
            arm.ms += (time.monotonic() - start) * 1000
        arm.binder, arm.passed, arm.solved = binder, len(arm_cexs), found
        if not found:
            # every joint assignment must pass this arm's counterexamples
            return None
    # the arm solutions must bind disjoint control points
    merged: dict[int, int] = {}
    for arm in stats.per_arm:
        frag = arm.binder if arm.binder is not None else {}
        if merged.keys() & frag.keys():
            return "fallback"
        merged.update(frag)
    phi = expanded.defaults | merged
    compiled.bind_controls(phi.__getitem__)
    if not _passes(compiled, compiled.func(harness.name), cexs, stats):
        return "fallback"
    return phi


def compile_run(
    expanded: ExpandedProgram,
    cfg: SynthesisConfig,
    shape: SpecShape | None,
    report: ClassificationReport | None,
    stats: SynthesisStats | None = None,
) -> tuple[CompiledProgram, SpecShape | None, SpecShape | None]:
    """Compile the one program that a run (`run_cegis`, or
    `pipeline.check_concrete`) executes.

    Returns the compiled program, bound to run as the plain program; the
    shape when that program is the decomposed one; and the shape again
    when its candidates can be verified by value classes (`verify`'s
    `value_classes`), else None.  Choices only drop nodes, so what holds
    for the expanded program holds for every candidate.  The time spent
    is added to the `decompose` and `compile` entries of `stats.phases`,
    and the verification strategy is recorded there.
    """
    phases = None if stats is None else stats.phases
    start = time.perf_counter()
    program, decomp, blocker = expanded.program, None, None
    if not cfg.indecomp:
        # Value classes would be sound here as well, but the level-by-level
        # check is the decomposition's induction argument, so the baseline
        # without it keeps the exhaustive scan.
        blocker = "decomposition is off"
    elif shape is None or report is None:
        blocker = "no inductive shape"
    else:
        dec = apply_inductive_decomposition(expanded, shape, report)
        program, blocker = dec.program, dec.blocker
        if dec.decomposed:
            decomp = shape
    if blocker is None:
        log.info("verification by value classes")
    else:
        log.info("exhaustive verification: %s", blocker)
    if stats is not None:
        stats.verify_strategy = EXHAUSTIVE if blocker else VALUE_CLASS
        stats.verify_reason = blocker
    start = add_phase(phases, "decompose", start)
    compiled = compile_concrete(program, decomp, cfg.effective_unroll)
    if decomp is not None:
        compiled.bind_boxes(False)
    add_phase(phases, "compile", start)
    return compiled, decomp, shape if blocker is None else None


def run_cegis(
    expanded: ExpandedProgram,
    cfg: SynthesisConfig,
    shape: SpecShape | None = None,
    report: ClassificationReport | None = None,
    phases: dict[str, float] | None = None,
) -> SynthesisResult:
    """The CEGIS loop: inductive synthesis against accumulated
    counterexamples, bounded verification, repeat.  The time of each of
    its phases is added to `phases` (one of `PHASES` each), which becomes
    the result's `stats.phases`.

    One program is compiled per run: the decomposed one when
    decomposition is on, else the plain one.  The decomposed program makes
    boxes during the search.  For every check, and for the search once
    decomposition is dropped, its box builder is bound to the translation,
    and it runs as the plain program.
    """
    start = time.monotonic()
    deadline = start + cfg.timeout_secs
    if not expanded.program.harnesses:
        raise SynrecError("program has no harness")
    harness = expanded.program.harnesses[0]
    stats = SynthesisStats()
    if phases is not None:
        stats.phases = phases
    # native harness arguments of the counterexamples, in the order of
    # their renderings in `stats.counterexamples`
    cexs: list[tuple] = []

    compiled, decomp, classes = compile_run(expanded, cfg, shape, report, stats)
    per_arm = decomp is not None and report.is_morphism
    if per_arm:
        adt = expanded.program.adt(shape.source_adt)
        stats.per_arm = [ArmStatus(v.name) for v in adt.variants]

    def finish(status, assignment=None, solution=None) -> SynthesisResult:
        stats.wall_ms = int((time.monotonic() - start) * 1000)
        stats.run = expanded, compiled.compiled
        # The compiled functions and their namespace refer to each other:
        # clearing it frees them now, not at the collector's next run,
        # which would fall in whatever the caller does next.
        compiled.namespace.clear()
        if status == SOLVED:
            # an arm is solved when its search found an assignment, or
            # when the whole run is
            for arm in stats.per_arm:
                arm.solved = True
        return SynthesisResult(status, assignment, solution, stats)

    def drop_decomposition(reason):
        nonlocal decomp, classes, per_arm
        decomp = classes = None
        per_arm = False
        compiled.bind_boxes(False)
        stats.verify_strategy, stats.verify_reason = EXHAUSTIVE, reason

    try:
        while True:
            stats.iterations += 1
            lap, phase = time.perf_counter(), "search"
            if decomp is not None:
                compiled.bind_boxes(True)
            if per_arm:
                got = _solve_per_arm(expanded, compiled, shape, cexs, deadline, stats)
                if got == "fallback":
                    log.warning("per-arm decoupling failed; falling back to joint solve")
                    per_arm = False
            if not per_arm:
                got = synthesize_inductive(expanded, compiled, cexs, deadline, stats)
            if got is None and decomp is not None:
                # Near the resource limits the decomposed and plain semantics
                # can diverge; an unsat claim must come from the semantics the
                # verifier uses.
                log.warning("decomposed search exhausted; re-running plain search")
                drop_decomposition("the decomposed search found no candidate")
                got = synthesize_inductive(expanded, compiled, cexs, deadline, stats)
            lap, phase = add_phase(stats.phases, "search", lap), "verify"
            if got is None:
                return finish(UNSAT)
            phi = got
            # Verification always checks the plain program: the deferred
            # placeholders exist to speed up the inductive step, and the
            # emitted solution must pass without them.  While decomposition
            # is active and its program passes `value_class_blocker`, the
            # plain program is checked by value classes, which gives the
            # exhaustive check's verdict and counterexample.
            if decomp is not None:
                compiled.bind_boxes(False)
            vr = verify(expanded, phi, cfg, classes, deadline, compiled)
            stats.verify_evaluations += vr.evaluations
            if vr.passed:
                lap = add_phase(stats.phases, "verify", lap)
                solution = concretize(expanded, phi)
                add_phase(stats.phases, "concretize", lap)
                return finish(SOLVED, phi, solution)
            # the runtime differential check of the compiled executor
            check = evaluate_harness(
                expanded.program, phi, vr.counterexample, cfg.eval_limits(),
                harness=harness,
            )
            add_phase(stats.phases, "verify", lap)
            if check.passed:
                raise InternalError(
                    "compiled verifier and reference evaluator disagree on a "
                    "counterexample"
                )
            key = _sigma_key(vr.counterexample)
            if key in stats.counterexamples:
                if decomp is not None:
                    # The candidate passes this input under decomposition but
                    # fails it plainly (a depth-limit artifact): continue
                    # without the optimization.
                    log.warning(
                        "decomposed/plain divergence on %s; disabling decomposition",
                        key,
                    )
                    drop_decomposition("a decomposed candidate failed plainly on a counterexample")
                    continue
                raise InternalError(f"counterexample repeated: {key}")
            stats.counterexamples.append(key)
            cexs.append(vr.args)
            log.info("iteration %d: counterexample %s", stats.iterations, key)
    except SynthesisTimeout:
        add_phase(stats.phases, phase, lap)
        return finish(TIMEOUT)
