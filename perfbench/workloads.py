"""The benchmark's workloads: what each runs, and the known answer of each task.

A workload is a list of jobs run back to back by one client (a closed loop).
A `synth` job is what a user does with a `.synrec` spec: synthesize, print
the solution, then re-check it with `check`.  A `check` job is one `check`
verdict.  Each job's inputs depend only on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import answers
from synrec import pipeline
from synrec.scaling import scaling_benchmark

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

# `lang` at depth 3 over one integer leaf value.  The integer must lie
# outside {0, 1} so that `BetweenS(a,b,c)` can hold (e.g. 0 < 1 < 2); the
# default domain 0..2 gives 8,741,205 inputs, one check of about 70 s on a
# 2-vCPU machine, which does not fit a run, while one value gives 194,943.
LANG_D3 = {"int_domain": (2,)}


@dataclass
class Job:
    name: str
    kind: str  # "synth" or "check"
    text: str
    overrides: dict
    mode: str = ""  # synth: "opt" or "noopt"
    # check: the reference verdict and first counterexample
    verdict: str = "pass"
    counterexample: str | None = None
    # inputs on which the reference evaluator re-checks the emitted solution
    # (synth) or the passing program (check), and known-good programs that
    # must pass on the same inputs
    ref_inputs: list = field(default_factory=list)
    compare_with: tuple = ()

    def config(self):
        return pipeline.config_for(self.text, self.overrides)


def _read(name: str) -> str:
    return (CORPUS / name).read_text()


def _synth_jobs(name: str, text: str, overrides: dict, rng, modes, compare_with=()):
    cfg = pipeline.config_for(text, overrides)
    ref = answers.reference_inputs(pipeline.load_with_library(text), cfg, rng)
    jobs = []
    for mode in modes:
        ov = dict(overrides, indecomp=mode == "opt")
        jobs.append(
            Job(f"{name}/{mode}", "synth", text, ov, mode=mode, ref_inputs=ref,
                compare_with=compare_with)
        )
    return jobs


def lang_d3(rng) -> list[Job]:
    """Synthesize `lang` and check its solution, then check `lang.expected`
    (pass) and seeded mutants of it (fail) at the same bounds."""
    base = _read("lang.expected.synrec")
    jobs = _synth_jobs(
        "lang-d3", _read("lang.synrec"), LANG_D3, rng, ("opt",), compare_with=(base,)
    )
    cfg = pipeline.config_for(base, LANG_D3)
    ref = answers.reference_inputs(pipeline.load_with_library(base), cfg, rng)
    jobs.append(Job("lang.expected", "check", base, LANG_D3, ref_inputs=ref))
    for m in answers.make_mutants(base, cfg, rng):
        jobs.append(
            Job(f"mutant {m['name']}", "check", m["text"], LANG_D3,
                verdict=m["verdict"], counterexample=m["counterexample"])
        )
    return jobs


def search_mix(rng) -> list[Job]:
    problems = [(f"scale{n}", scaling_benchmark(n), {}) for n in range(3, 9)]
    problems += [(b, _read(f"{b}.synrec"), {}) for b in ("elimBool", "lIns", "tIns")]
    problems.append(("lang-d2", _read("lang.synrec"), {"input_depth": 2}))
    expected = (_read("lang.expected.synrec"),)
    jobs = []
    for name, text, ov in problems:
        compare = expected if name.startswith("lang") else ()
        jobs += _synth_jobs(name, text, ov, rng, ("opt", "noopt"), compare)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"lang-d3": lang_d3, "search-mix": search_mix}


def build(name: str, seed: int) -> list[Job]:
    return WORKLOADS[name](random.Random(seed))


def fingerprint(jobs: list[Job]) -> list:
    """Everything a job's inputs are; equal across set-ups of one seed."""
    return [
        (j.name, j.kind, j.text, sorted(j.overrides.items()), j.verdict,
         j.counterexample, [answers.render(s) for s in j.ref_inputs])
        for j in jobs
    ]
