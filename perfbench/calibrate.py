"""CPU speed gauge: turns wall times into seconds at a fixed reference speed.

On a shared host the speed of one vCPU drifts with the neighbours' load,
by up to 40% in spells of seconds to minutes.  A spell that covers a whole
run moves every timing of that run, and no statistic over the run's own
passes can remove it.  So the benchmark runs a fixed calibration unit
between jobs and scales each job's wall time by how fast the unit ran
around it:

    reference seconds = wall seconds * REF_UNIT_S / unit seconds

The unit is a small tree-walking interpreter, the same kind of work as
synrec's evaluators (attribute reads, isinstance dispatch, recursion, dict
and tuple traffic), but it shares no code with synrec: a change to synrec
changes the scaled times by exactly as much as it changes the wall times
at a fixed CPU speed.  The collector is off while the unit runs, so the
heap a job leaves behind does not slow the unit.
"""

from __future__ import annotations

import gc
import time

# Seconds one unit takes at the reference speed: a quiet vCPU of the 2-vCPU
# Xeon (Sapphire Rapids) KVM guest the benchmark was written on.
REF_UNIT_S = 0.0025
# Calibration after a job lasts this share of the job, at least MIN_S.
SHARE = 0.1
MIN_S = 0.02


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


class _Var:
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n


class _Add:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class _If:
    __slots__ = ("c", "t", "e")

    def __init__(self, c, t, e):
        self.c = c
        self.t = t
        self.e = e


class _Rec:
    __slots__ = ("tag", "fields")

    def __init__(self, tag, fields):
        self.tag = tag
        self.fields = fields


def _eval(e, env):
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return env[e.n]
    if isinstance(e, _Add):
        return (_eval(e.a, env) + _eval(e.b, env)) & 0xFFFF
    if isinstance(e, _If):
        return _eval(e.t, env) if _eval(e.c, env) & 1 else _eval(e.e, env)
    raise TypeError(e)


def _tree(depth, i):
    if depth == 0:
        return _Var("x") if i % 3 else _Num(i)
    if i % 4 == 0:
        return _If(_tree(depth - 1, i * 7 + 1), _tree(depth - 1, i * 5 + 2),
                   _tree(depth - 1, i * 3 + 3))
    return _Add(_tree(depth - 1, i * 7 + 1), _tree(depth - 1, i * 5 + 2))


def _fold(r, memo):
    key = (r.tag, len(r.fields))
    if key not in memo:
        memo[key] = sum(_fold(f, memo) if isinstance(f, _Rec) else f for f in r.fields)
    return memo[key]


_TREE = _tree(7, 1)


def unit() -> int:
    """One calibration unit; about REF_UNIT_S seconds at the reference speed."""
    s = 0
    for x in range(40):
        s += _eval(_TREE, {"x": x})
        s += _fold(_Rec("c", [_Rec("a", [x, 1]), _Rec("b", [x, 2, 3])]), {})
    return s


def run_units(budget: float) -> tuple[int, float]:
    """Run units for at least `budget` seconds; how many ran, in how long."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        n, t0 = 0, time.perf_counter()
        while True:
            unit()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                return n, elapsed
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Measures speed between timed stretches of work."""

    def __init__(self):
        self.last = run_units(MIN_S)

    def scale(self, wall_s: float) -> float:
        """Factor from the wall seconds just measured to reference seconds.
        The speed pools the units run just before and just after the
        stretch, so a short window before a long job weighs little."""
        before = self.last
        self.last = run_units(max(MIN_S, SHARE * wall_s))
        units, seconds = before[0] + self.last[0], before[1] + self.last[1]
        return REF_UNIT_S * units / seconds
