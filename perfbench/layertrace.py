"""Per-layer tracing installed from the benchmark, with no change to synrec.

`Tracer.install` replaces module attributes of synrec with wrappers.  synrec
calls these functions through its module globals, so the wrappers see every
call.  Each wrapped call becomes a span (layer, start, end, parent, task id);
the two hot calls, `evaluate_harness` and each `next` of `iter_inputs`,
become aggregate counters and times instead.  A span's self time is its
duration minus its child spans and the hot calls made inside it.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter

from synrec.ast import walk

# module -> attribute -> layer.  `verify` is bound in two modules: `check`
# reaches it through synrec.pipeline, the CEGIS loop through synrec.cegis.
SPANNED = {
    "synrec.pipeline": {
        "load_with_library": "parser",
        "expand_program": "expand",
        "detect_spec_shape": "indecomp",
        "classify_transformer": "indecomp",
        "run_cegis": "search",
        "verify": "verify",
    },
    "synrec.cegis": {
        "apply_inductive_decomposition": "indecomp",
        "synthesize_inductive": "search",
        "verify": "verify",
        "compile_concrete": "compile",
        "concretize": "concretize",
    },
    "synrec.printer": {"pretty_print_program": "printer"},
}
ENUM_BATCH = 256
LAYERS = (
    "parser", "expand", "indecomp", "search", "verify",
    "enumerate", "compile", "concretize", "printer",
)


class _Span:
    __slots__ = ("task", "layer", "fn", "start", "end", "parent", "inner")

    def __init__(self, task, layer, fn, start, parent):
        self.task = task
        self.layer = layer
        self.fn = fn
        self.start = start
        self.end = start
        self.parent = parent
        self.inner = 0.0  # time covered by child spans and hot calls

    def to_json(self, index: dict) -> dict:
        return {
            "task": self.task,
            "layer": self.layer,
            "fn": self.fn,
            "start_s": self.start,
            "end_s": self.end,
            "parent": None if self.parent is None else index[id(self.parent)],
        }


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.self_s: Counter = Counter()  # layer -> seconds
        self.times: Counter = Counter()  # inclusive times of verify calls
        self.counts: Counter = Counter()
        self.task = None
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, attrs in SPANNED.items():
            mod = importlib.import_module(modname)
            for attr, layer in attrs.items():
                self._replace(mod, attr, self._spanned(layer, getattr(mod, attr)))
        cegis = importlib.import_module("synrec.cegis")
        self._replace(cegis, "evaluate_harness", self._evaluations(cegis.evaluate_harness))
        self._replace(cegis, "iter_inputs", self._enumeration(cegis.iter_inputs))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _replace(self, mod, attr, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def begin_task(self, task_id: str) -> None:
        self.task = task_id
        self._open("task", "task")

    def end_task(self) -> None:
        self._close()
        self.task = None

    def _open(self, layer: str, fn: str) -> None:
        parent = self.stack[-1] if self.stack else None
        span = _Span(self.task, layer, fn, time.perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)

    def _close(self) -> _Span:
        span = self.stack.pop()
        span.end = time.perf_counter()
        duration = span.end - span.start
        self.self_s[span.layer] += duration - span.inner
        if span.parent is not None:
            span.parent.inner += duration
        return span

    def _hot(self, layer: str, seconds: float) -> None:
        self.self_s[layer] += seconds
        if self.stack:
            self.stack[-1].inner += seconds

    def _spanned(self, layer: str, fn):
        name = fn.__name__

        def wrapper(*args, **kwargs):
            self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close()
            self._observe(name, out, span)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluations(self, fn):
        def evaluate_harness(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._hot("search", time.perf_counter() - t0)
                self.counts["search.evals"] += 1

        evaluate_harness.__wrapped__ = fn
        return evaluate_harness

    def _enumeration(self, fn):
        def iter_inputs(*args, **kwargs):
            # Timed in batches: a clock read per item costs as much as a
            # tenth of a harness run.  A consumer that stops early leaves at
            # most one batch drawn but not counted.
            gen = fn(*args, **kwargs)
            drawn = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    batch = list(itertools.islice(gen, ENUM_BATCH))
                    self._hot("enumerate", time.perf_counter() - t0)
                    for item in batch:
                        drawn += 1
                        yield item
                    if len(batch) < ENUM_BATCH:
                        return
            finally:
                self.counts["enumerate.inputs"] += drawn

        iter_inputs.__wrapped__ = fn
        return iter_inputs

    def _observe(self, name: str, out, span: _Span) -> None:
        """Counters read from a wrapped call's result."""
        self.counts[f"{span.layer}.calls"] += 1
        if name == "expand_program":
            self.counts["expand.control_points"] += len(out.control_space)
            self.counts["expand.nodes"] += sum(
                sum(1 for _ in walk(f.body)) for f in out.program.functions
            )
        elif name == "apply_inductive_decomposition":
            self.counts["indecomp.applied"] += 1
        elif name == "run_cegis":
            self.counts["search.iters"] += out.stats.iterations
        elif name == "verify":
            self.counts["verify.inputs"] += out.evaluations
            self.times["verify.incl"] += span.end - span.start
            if out.passed:
                self.times["verify.final"] += span.end - span.start

    # -- output ------------------------------------------------------------

    def spans_json(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(index) for s in self.spans]
