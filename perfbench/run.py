#!/usr/bin/env python3
"""synrec benchmark: time to a verified solution or verdict, per workload.

    python3 perfbench/run.py --workload lang-d3 --seed 1 --seconds 55 --trace 0

Run from the repository root; synrec is imported from `src/` of the same
tree.  The run sets up `SETUP_REPEATS` times (import synrec, build the
seeded inputs), then runs passes over the workload's jobs back to back, one
client, no extra threads or processes, until the next pass would overrun
`--seconds`.  Every output is checked against a known answer (answers.py)
and every pass must reproduce the first one exactly.

Times are in seconds at a fixed reference CPU speed: between jobs a
calibration unit measures how fast the vCPU runs, and each job's wall time
is scaled by it (calibrate.py).  The report lines also give raw wall times.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json, each summed over jobs of the
job's median over passes.
With `--trace 1` an untraced warm-up pass is followed by traced and untraced
passes in turn, at least two traced (layertrace.py); the JSON holds the per-layer metrics and the spans go to
`perfbench/out/`.  The lines above the JSON report every metric, including
those that do not apply to the workload ("absent").  The exit code is 1
when a task failed or a self-check did not hold.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKLOADS = ("lang-d3", "search-mix")
BENCH_MODULES = ("answers", "workloads", "layertrace")
# Share of a traced pass that the layer self times must cover.
MIN_COVERAGE = 0.95
# The layer with the largest self time on each workload; `verify` here
# includes input enumeration and compiling the candidate it checks.
DOMINANT = {"lang-d3": "verify", "search-mix": "search"}


class BenchError(Exception):
    """The benchmark could not set up."""


def _import_fresh():
    """Import synrec and the benchmark's own modules from scratch."""
    for name in list(sys.modules):
        if name == "synrec" or name.startswith("synrec.") or name in BENCH_MODULES:
            del sys.modules[name]
    importlib.import_module("synrec.cli")
    return importlib.import_module("workloads")


def setup(workload: str, seed: int, gauge):
    """Set up SETUP_REPEATS times; return the jobs and the median time in
    reference seconds."""
    sys.path.insert(0, str(SRC))
    times, builds, jobs = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = _import_fresh()
        jobs = wl.build(workload, seed)
        wall = time.perf_counter() - t0
        times.append(wall * gauge.scale(wall))
        builds.append(wl.fingerprint(jobs))
    synrec = sys.modules["synrec"]
    if Path(synrec.__file__).resolve().parent != SRC / "synrec":
        raise BenchError(f"synrec imported from {synrec.__file__}, not from {SRC}")
    if any(b != builds[0] for b in builds):
        raise BenchError("set-ups of one seed built different inputs")
    return jobs, statistics.median(times)


# ---------------------------------------------------------------------------
# Passes


def run_job(job, tracer=None) -> dict:
    """Run one job; the timed parts are what `synrec synth` / `check` do."""
    import answers
    from synrec import pipeline, printer
    from synrec.ast import walk

    out = {"name": job.name, "kind": job.kind, "mode": job.mode, "error": None}
    if tracer is not None:
        tracer.begin_task(f"{job.name}:{job.kind}")
    try:
        text = job.text
        if job.kind == "synth":
            t0 = time.perf_counter()
            cfg = job.config()
            res = pipeline.synthesize(text, cfg)
            text = printer.pretty_print_program(res.solution) if res.solved else None
            out["synth_s"] = time.perf_counter() - t0
            out.update(status=res.status, cexs=res.stats.counterexamples,
                       iterations=res.stats.iterations,
                       evaluations=res.stats.candidate_evaluations, solution=text)
            if text is None:
                return out
            out["solution_nodes"] = sum(
                1 for f in res.solution.functions for _ in walk(f.body)
            )
        t0 = time.perf_counter()
        vr = pipeline.check_concrete(text, job.config())
        out["check_s"] = time.perf_counter() - t0
        out["verdict"] = "pass" if vr.passed else "fail"
        out["check_inputs"] = vr.evaluations
        if not vr.passed:
            out["counterexample"] = answers.render(vr.counterexample)
    except Exception:  # a task's failure is counted; the run goes on
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.end_task()
    return out


def run_pass(jobs, gauge, tracer=None) -> list[dict]:
    results = []
    for job in jobs:
        # Start each job from a collected heap, as a fresh `synrec` process
        # would: the compiled verifier's memo tables sit in reference
        # cycles, and when the collector frees them would otherwise set the
        # peak RSS and the time of whichever job it interrupts.
        gc.collect()
        r = run_job(job, tracer)
        r["scale"] = gauge.scale(r.get("synth_s", 0.0) + r.get("check_s", 0.0))
        results.append(r)
    return results


def seconds(results, key=None, mode=None, scaled=True) -> float:
    """Timed seconds of a pass: in reference seconds, or raw wall seconds."""
    keys = (key,) if key else ("synth_s", "check_s")
    return sum(
        r.get(k, 0.0) * (r["scale"] if scaled else 1.0)
        for r in results for k in keys if mode is None or r["mode"] == mode
    )


def outcome(result: dict) -> tuple:
    """What must repeat exactly from pass to pass and from run to run."""
    return tuple(
        result.get(k)
        for k in ("name", "status", "cexs", "iterations", "evaluations", "solution",
                  "verdict", "counterexample", "check_inputs", "error")
    )


# ---------------------------------------------------------------------------
# Known answers


def task_count(jobs) -> int:
    """A synth job is two tasks: synthesize, then check the solution."""
    return sum(2 if j.kind == "synth" else 1 for j in jobs)


def wrong_tasks(jobs, results) -> list[str]:
    """Tasks of one pass whose output differs from the known answer."""
    import answers

    wrong = []
    for job, r in zip(jobs, results):
        if r["error"]:
            wrong.append(f"{job.name}: error\n{r['error']}")
            continue
        if job.kind == "synth" and r["status"] != "solved":
            wrong += [f"{job.name}: synth {r['status']}", f"{job.name}: check not run"]
            continue
        got = (r["verdict"], r.get("counterexample"))
        if got != (job.verdict, job.counterexample):
            wrong.append(f"{job.name}: check gives {got}, expected "
                         f"{(job.verdict, job.counterexample)}")
        if job.verdict == "pass":
            cfg = job.config()
            checked = (r["solution"] if job.kind == "synth" else job.text,) + job.compare_with
            for text in checked:
                bad = answers.reference_failures(text, cfg, job.ref_inputs)
                if bad:
                    wrong.append(f"{job.name}: reference evaluator rejects {bad[0]}")
    return wrong


# ---------------------------------------------------------------------------
# Metrics: (value, unit), or None where the workload has no such task


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_over(passes, key=None, mode=None) -> float:
    """Sum over jobs of each job's median over passes, so that a spell
    that slows a few jobs of one pass hardly moves it."""
    return sum(
        statistics.median(seconds([p[i]], key, mode) for p in passes)
        for i in range(len(passes[0]))
    )


def end_to_end(passes, setup_s) -> dict:
    first = passes[0]

    def timed(key, mode=None):
        if any(key in r and (mode is None or r["mode"] == mode) for r in first):
            return _median_over(passes, key, mode), "s"
        return None

    nodes = [r["solution_nodes"] for r in first if "solution_nodes" in r]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median_over(passes), "s"),
        "synth_opt_s": timed("synth_s", "opt"),
        "synth_noopt_s": timed("synth_s", "noopt"),
        "check_s": timed("check_s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "solution_nodes": (sum(nodes), "count") if nodes else None,
    }


def speedup(results) -> float | None:
    """Geometric mean over problems of noopt/opt synth time."""
    times: dict = {}
    for r in results:
        if "synth_s" in r:
            times.setdefault(r["name"].rsplit("/", 1)[0], {})[r["mode"]] = r["synth_s"]
    ratios = [t["noopt"] / t["opt"] for t in times.values() if len(t) == 2]
    if not ratios:
        return None
    return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


def _ratio(num, den, unit, scale=1.0):
    return (num * scale / den, unit) if den else None


def per_layer(tracers, traced, untraced, jobs) -> dict:
    """Self times are medians over the traced passes; counts repeat exactly
    (see trace_checks).  `untraced[0]` is the warm-up pass."""
    from layertrace import LAYERS

    walls = [seconds(p, scaled=False) for p in traced]

    def ms(layer):
        return statistics.median(t.self_s[layer] for t in tracers) * 1000

    def incl_ms(key):
        return statistics.median(t.times[key] for t in tracers) * 1000

    c = tracers[0].counts
    evals, inputs, iters = c["search.evals"], c["verify.inputs"], c["search.iters"]
    opt_jobs = sum(1 for j in jobs if j.kind == "synth" and j.mode == "opt")
    gain = speedup(untraced[0])
    verify_side = [
        sum(t.self_s[k] for k in ("verify", "enumerate", "compile")) / w
        for t, w in zip(tracers, walls)
    ]
    coverage = [sum(t.self_s[k] for k in LAYERS) / w for t, w in zip(tracers, walls)]
    return {
        "parser.ms": (ms("parser"), "ms"),
        "parser.calls": (c["parser.calls"], "count"),
        "expand.ms": (ms("expand"), "ms"),
        "expand.control_points": (c["expand.control_points"], "count"),
        "expand.nodes": (c["expand.nodes"], "count"),
        "indecomp.ms": (ms("indecomp"), "ms"),
        "indecomp.applied": _ratio(c["indecomp.applied"], opt_jobs, "ratio"),
        "indecomp.speedup": (gain, "ratio") if gain else None,
        "search.ms": (ms("search"), "ms"),
        "search.evals": (evals, "count"),
        "search.us_per_eval": _ratio(ms("search"), evals, "us", 1000),
        "search.iters": (iters, "count"),
        "search.evals_per_iter": _ratio(evals, iters, "count"),
        "verify.ms": (ms("verify"), "ms"),
        "verify.calls": (c["verify.calls"], "count"),
        "verify.inputs": (inputs, "count"),
        "verify.us_per_input": _ratio(incl_ms("verify.incl"), inputs, "us", 1000),
        "verify.final_ms": (incl_ms("verify.final"), "ms"),
        "verify.share": (statistics.median(verify_side), "ratio"),
        "enumerate.ms": (ms("enumerate"), "ms"),
        "enumerate.inputs": (c["enumerate.inputs"], "count"),
        "compile.ms": (ms("compile"), "ms"),
        "compile.calls": (c["compile.calls"], "count"),
        "concretize.ms": (ms("concretize"), "ms"),
        "printer.ms": (ms("printer"), "ms"),
        "trace.coverage": (min(coverage), "ratio"),
        # Passes run apart in time: compare them at the reference speed.
        "trace.overhead_s": (
            statistics.median(seconds(p) for p in traced)
            - statistics.median(seconds(p) for p in untraced[1:]), "s"),
    }


def trace_checks(workload, tracers, layers) -> list[str]:
    """Self-checks of a traced run; each message is a failure."""
    from layertrace import LAYERS

    problems = []
    counts = [dict(t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append(f"layer counters differ between traced passes: {counts}")
    if layers["trace.coverage"][0] < MIN_COVERAGE:
        problems.append(f"layer self times cover {layers['trace.coverage'][0]:.3f} "
                        f"of a traced pass, below {MIN_COVERAGE}")
    shares = {k: layers[f"{k}.ms"][0] for k in LAYERS}
    shares["verify"] += shares.pop("enumerate") + shares.pop("compile")
    top = max(shares, key=shares.get)
    if top != DOMINANT[workload]:
        problems.append(f"dominant layer is {top}, expected {DOMINANT[workload]}: {shares}")
    return problems


# ---------------------------------------------------------------------------


def report(metrics: dict) -> None:
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value[0]:.6g} {value[1]}"
        print(f"  {name:24s} {shown}")


def measure(jobs, gauge, budget: float, trace: bool):
    """Run passes until the next one would overrun `budget` seconds; return
    them with the tracer of each (None where untraced).  Traced: an untraced
    warm-up pass, then traced and untraced passes in turn, at least two
    traced ones."""
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = None
        if trace and len(passes) % 2 == 1:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            passes.append(run_pass(jobs, gauge, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracers.append(tracer)
        now = time.perf_counter()
        enough = not trace or len(passes) >= 4
        if enough and now - start + (now - t0) > budget:
            return passes, tracers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        gauge = Gauge()
        jobs, setup_s = setup(args.workload, args.seed, gauge)
    except Exception:
        traceback.print_exc()
        print("error: set-up failed", file=sys.stderr)
        return 1

    passes, tracers = measure(jobs, gauge, args.seconds, bool(args.trace))
    wrong = wrong_tasks(jobs, passes[0])
    for i, p in enumerate(passes[1:], 1):
        wrong += [f"{a['name']}: pass {i} differs from pass 0"
                  for a, b in zip(passes[0], p) if outcome(a) != outcome(b)]
    untraced = [p for p, t in zip(passes, tracers) if t is None]
    e2e = end_to_end(untraced, setup_s)
    layers, problems = None, []
    if args.trace:
        traced = [p for p, t in zip(passes, tracers) if t is not None]
        tracers = [t for t in tracers if t is not None]
        layers = per_layer(tracers, traced, untraced, jobs)
        problems = trace_checks(args.workload, tracers, layers)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": [t.spans_json() for t in tracers],
            "per_layer": layers,
        }) + "\n")

    attempted = task_count(jobs) * len(passes)
    failed = min(len(wrong), attempted)
    digest = hashlib.sha256(repr([outcome(r) for r in passes[0]]).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs; outputs {digest[:16]}")
    for msg in wrong + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print("wall_s of each pass (reference s / raw s):",
          " ".join(f"{seconds(p):.3f}/{seconds(p, scaled=False):.3f}" for p in passes))
    print("end to end" + (" (untraced passes)" if args.trace else "") + ":")
    report(dict(e2e, fail_share=(failed / attempted, f"ratio ({failed}/{attempted})")))
    if layers is not None:
        print("per layer (self times unless stated):")
        report(layers)

    source = layers if args.trace else e2e
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {n: {"value": source[n][0], "unit": source[n][1]}
               for n in names if source.get(n) is not None}
    correct = not wrong and not problems and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
