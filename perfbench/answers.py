"""Known answers for the benchmark, computed independently of the timed code.

Every expected result comes from the reference tree-walker
(`synrec.evaluator.evaluate_harness`) on inputs enumerated here, never from
the compiled verifier that the timed `synth` and `check` tasks exercise.

- `Values` enumerates ADT values in synrec's documented order (depth-major,
  then declaration order, then field-major products) and samples values of
  an exact depth uniformly at random from a seeded generator.
- `reference_inputs` is the re-check set for an emitted solution: every
  input up to depth 2 plus a seeded sample at the task's depth.
- `make_mutants` derives seeded mutants of `lang.expected`'s `desugar`
  whose first counterexample lies at a chosen depth, and records that
  counterexample.
"""

from __future__ import annotations

import itertools
import math

from synrec.ast import PrimType
from synrec.evaluator import VRecord, evaluate_harness, format_value
from synrec.expand import expand_program
from synrec.pipeline import load_with_library

SAMPLES_AT_DEPTH = 100
# A mutant whose first counterexample lies further into the enumeration is
# redrawn, so that every seed does about the same work.
MUTANT_INPUT_CAP = 400


class Values:
    """Values of a program's types, in the order synrec enumerates them."""

    def __init__(self, program, int_domain):
        self.program = program
        self.ints = tuple(int_domain)
        self._exact: dict = {}
        self._count: dict = {}

    def _prims(self, ty):
        return (0, 1) if ty.name == "bit" else self.ints

    def exact(self, ty, depth: int) -> list:
        key = (ty, depth)
        if key not in self._exact:
            self._exact[key] = list(self.iter_exact(ty, depth))
        return self._exact[key]

    def upto(self, ty, depth: int) -> list:
        if isinstance(ty, PrimType):
            return list(self._prims(ty))
        return [v for d in range(1, depth + 1) for v in self.exact(ty, d)]

    def _fields(self, variant, depth):
        """Per-field pools for a record at `depth`, and the length of each
        pool's prefix that lies below depth - 1."""
        pools, shallow = [], []
        for _, fty in variant.fields:
            low = [v for d in range(depth - 1) for v in self.exact(fty, d)]
            shallow.append(len(low))
            pools.append(low + self.exact(fty, depth - 1))
        return pools, shallow

    def iter_exact(self, ty, depth: int):
        if isinstance(ty, PrimType):
            if depth == 0:
                yield from self._prims(ty)
            return
        if depth < 1:
            return
        for variant in self.program.adt(ty.name).variants:
            labels = [label for label, _ in variant.fields]
            if not labels:
                if depth == 1:
                    yield VRecord(variant.name, {})
                continue
            pools, shallow = self._fields(variant, depth)
            for combo in itertools.product(*(range(len(p)) for p in pools)):
                if any(i >= s for i, s in zip(combo, shallow)):
                    yield VRecord(
                        variant.name,
                        {label: p[i] for label, p, i in zip(labels, pools, combo)},
                    )

    def count(self, ty, depth: int) -> int:
        """Number of values of exactly `depth`, without building them."""
        if isinstance(ty, PrimType):
            return len(self._prims(ty)) if depth == 0 else 0
        key = (ty, depth)
        if key not in self._count:
            variants = self.program.adt(ty.name).variants
            self._count[key] = sum(self._variant_count(v, depth) for v in variants)
        return self._count[key]

    def _variant_count(self, variant, depth: int) -> int:
        if not variant.fields:
            return int(depth == 1)
        upto = [self._count_upto(f, depth - 1) for _, f in variant.fields]
        below = [self._count_upto(f, depth - 2) for _, f in variant.fields]
        return math.prod(upto) - math.prod(below)

    def _count_upto(self, ty, depth: int) -> int:
        return sum(self.count(ty, d) for d in range(0, depth + 1))

    def sample(self, ty, depth: int, rng):
        """A uniformly drawn value of exactly `depth`."""
        if isinstance(ty, PrimType):
            return rng.choice(self._prims(ty))
        variants = self.program.adt(ty.name).variants
        weights = [self._variant_count(v, depth) for v in variants]
        variant = rng.choices(variants, weights=weights)[0]
        while True:
            picked = [self.sample_upto(f, depth - 1, rng) for _, f in variant.fields]
            if not picked or any(d == depth - 1 for d, _ in picked):
                return VRecord(
                    variant.name,
                    {label: v for (label, _), (_, v) in zip(variant.fields, picked)},
                )

    def sample_upto(self, ty, depth: int, rng):
        """(depth, value) drawn uniformly from the values up to `depth`."""
        depths = list(range(0, depth + 1))
        d = rng.choices(depths, weights=[self.count(ty, k) for k in depths])[0]
        return d, self.sample(ty, d, rng)


def reference_inputs(program, cfg, rng) -> list[dict]:
    """Every input up to depth 2, plus a seeded sample at the input depth."""
    harness = program.harnesses[0]
    values = Values(program, cfg.int_domain)
    names = [n for n, _ in harness.params]
    types = [t for _, t in harness.params]
    low = min(2, cfg.input_depth)
    sigmas = [
        dict(zip(names, combo))
        for combo in itertools.product(*(values.upto(t, low) for t in types))
    ]
    adt_slots = [i for i, t in enumerate(types) if not isinstance(t, PrimType)]
    if cfg.input_depth > low and adt_slots:
        for _ in range(SAMPLES_AT_DEPTH):
            deep = rng.choice(adt_slots)
            args = []
            for i, t in enumerate(types):
                if i == deep or isinstance(t, PrimType):
                    args.append(values.sample(t, cfg.input_depth if i == deep else 0, rng))
                else:
                    args.append(values.sample_upto(t, cfg.input_depth, rng)[1])
            sigmas.append(dict(zip(names, args)))
    return sigmas


def expanded_program(text: str, cfg):
    """Parse and expand a concrete program for the reference evaluator."""
    return expand_program(load_with_library(text), cfg.expansion_context()).program


def reference_failures(text: str, cfg, sigmas: list[dict]) -> list[str]:
    """Inputs (rendered) on which the reference evaluator rejects `text`."""
    program = expanded_program(text, cfg)
    limits = cfg.eval_limits()
    return [
        render(sigma)
        for sigma in sigmas
        if not evaluate_harness(program, {}, sigma, limits).passed
    ]


def render(sigma: dict) -> str:
    """The counterexample as `synrec check` prints it."""
    return ", ".join(f"{k} = {format_value(v)}" for k, v in sigma.items())


# ---------------------------------------------------------------------------
# Mutants of lang.expected

DESUGAR_HEAD = "dstAST desugar(srcAST src) {"
LEAF_ARMS = ("NumS", "TrueS", "FalseS")
# (switch arm, text in that arm, replacement).  A draw whose reference
# counterexample is missing, late or at another depth is redrawn.
MUTATIONS = (
    ("NumS", "new NumD(v = src.v)", "new NumD(v = 0)"),
    ("NumS", "new NumD(v = src.v)", "new NumD(v = 1)"),
    ("NumS", "new NumD(v = src.v)", "new BoolD(v = 1)"),
    ("TrueS", "new BoolD(v = 1)", "new BoolD(v = 0)"),
    ("TrueS", "new BoolD(v = 1)", "new NumD(v = 0)"),
    ("FalseS", "new BoolD(v = 0)", "new BoolD(v = 1)"),
    ("FalseS", "new BoolD(v = 0)", "new NumD(v = 1)"),
    ("BinaryS", "op = src.op", "op = new AndOp()"),
    ("BinaryS", "op = src.op", "op = new OrOp()"),
    ("BinaryS", "op = src.op", "op = new LtOp()"),
    ("BinaryS", "a = a[0], b = a[1]", "a = a[1], b = a[0]"),
    ("BetweenS", "op = new AndOp()", "op = new OrOp()"),
    ("BetweenS", "a = a[0], b = a[1]", "a = a[1], b = a[0]"),
    ("BetweenS", "a = a[1], b = a[2]", "a = a[2], b = a[1]"),
    ("BetweenS", "b = new BinaryD(op = new LtOp()", "b = new BinaryD(op = new OrOp()"),
)


def _mutate_arm(fn_text: str, arm: str, old: str, new: str) -> str:
    start = fn_text.index(f"case {arm}:")
    nxt = fn_text.find("case ", start + 1)
    end = len(fn_text) if nxt < 0 else nxt
    segment = fn_text[start:end]
    if old not in segment:
        raise ValueError(f"mutation {old!r} does not apply to arm {arm}")
    return fn_text[:start] + segment.replace(old, new, 1) + fn_text[end:]


def _renamed(fn_text: str, name: str, callee: str) -> str:
    fn_text = fn_text.replace(DESUGAR_HEAD, f"dstAST {name}(srcAST src) {{", 1)
    return fn_text.replace("desugar(src.", f"{callee}(src.")


def mutant_text(base: str, arm: str, old: str, new: str, level: int) -> str:
    """`base` with a fault in `desugar`'s `arm` reached only at recursion
    level `level`: levels 1..level-1 are renamed copies that recurse one
    level deeper, and the faulty copy recurses into a correct one."""
    start = base.index(DESUGAR_HEAD)
    end = base.index("harness ", start)
    fn = base[start:end]
    names = ["desugar"] + [f"desugar{k}" for k in range(2, level + 1)]
    parts = []
    for k, name in enumerate(names, 1):
        callee = names[k] if k < level else "desugarOk"
        body = fn if k < level else _mutate_arm(fn, arm, old, new)
        parts.append(_renamed(body, name, callee))
    parts.append(_renamed(fn, "desugarOk", "desugarOk"))
    return base[:start] + "".join(parts) + base[end:]


def first_failure(text: str, cfg, cap: int):
    """(depth, rendered input) of the first input, in enumeration order, on
    which the reference evaluator rejects `text`; None if there is none
    among the first `cap` inputs."""
    program = expanded_program(text, cfg)
    harness = program.harnesses[0]
    ((pname, pty),) = harness.params
    values = Values(program, cfg.int_domain)
    limits = cfg.eval_limits()
    seen = 0
    for depth in range(1, cfg.input_depth + 1):
        for v in values.iter_exact(pty, depth):
            seen += 1
            if seen > cap:
                return None
            sigma = {pname: v}
            if not evaluate_harness(program, {}, sigma, limits, harness=harness).passed:
                return depth, render(sigma)
    return None


# First-counterexample depth of each mutant to draw, in order.
MUTANT_DEPTHS = (1, 1, 1, 2, 2, 2, 3, 3, 3)


def make_mutants(base: str, cfg, rng) -> list[dict]:
    """Distinct mutants whose first counterexamples lie at MUTANT_DEPTHS,
    each with its reference verdict and counterexample."""
    out: list[dict] = []
    seen: set[str] = set()
    for depth in MUTANT_DEPTHS:
        for _ in range(200):
            arm, old, new = rng.choice(MUTATIONS)
            level = depth if arm in LEAF_ARMS else depth - 1
            if level < 1:
                continue
            text = mutant_text(base, arm, old, new, level)
            if text in seen:
                continue
            found = first_failure(text, cfg, MUTANT_INPUT_CAP)
            if found is None or found[0] != depth:
                continue
            seen.add(text)
            out.append(
                {
                    "name": f"d{depth}:{arm}@{level}:{new}",
                    "text": text,
                    "verdict": "fail",
                    "counterexample": found[1],
                }
            )
            break
        else:
            raise RuntimeError(f"no mutant with a depth-{depth} counterexample found")
    return out
