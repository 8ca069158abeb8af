"""End-to-end wiring: parse -> library merge -> resolution -> expansion ->
shape detection -> decomposition -> CEGIS -> concrete solution.

Also handles the per-file configuration pragma: a leading comment line of
the form ``//! key=value key=value`` (keys mirror the CLI flags) supplies
benchmark-specific bounds; explicit CLI flags win over pragmas.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from .ast import FuncDecl, SurfaceProgram
from .cegis import (
    SynthesisConfig,
    SynthesisResult,
    VerifyResult,
    compile_run,
    run_cegis,
    verify,
)
from .errors import SynrecError
from .expand import ExpandedProgram, expand_program
from .indecomp import ClassificationReport, SpecShape, classify_transformer, detect_spec_shape
from .parser import merge_programs, parse, resolve
from .prelude import prelude_text

log = logging.getLogger("synrec")

_PRAGMA_KEYS = {
    "input-depth": ("input_depth", int),
    "int-domain": ("int_domain", "range"),
    "hole-domain": ("hole_domain", "range"),
    "inline-bound": ("inline_bound", int),
    "unroll": ("unroll_depth", int),
    "timeout-secs": ("timeout_secs", float),
}


def parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SynrecError(f"expected LO..HI, got {text!r}")
    return int(lo), int(hi)


def parse_pragmas(text: str) -> dict:
    """Read `//! key=value ...` configuration lines at the top of a file."""
    overrides: dict = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("//!"):
            break
        for item in stripped[3:].split():
            key, sep, value = item.partition("=")
            if not sep or key not in _PRAGMA_KEYS:
                raise SynrecError(f"unknown pragma {item!r}")
            field_name, conv = _PRAGMA_KEYS[key]
            if conv == "range":
                lo, hi = parse_range(value)
                if field_name == "int_domain":
                    overrides["int_domain"] = tuple(range(lo, hi + 1))
                else:
                    overrides["hole_lo"], overrides["hole_hi"] = lo, hi
            else:
                overrides[field_name] = conv(value)
    return overrides


def config_for(text: str, cli_overrides: dict | None = None) -> SynthesisConfig:
    values = parse_pragmas(text)
    if cli_overrides:
        values.update({k: v for k, v in cli_overrides.items() if v is not None})
    return SynthesisConfig(**values)


def load_with_library(
    text: str, lib_text: str | None = None, solution_text: str | None = None
) -> SurfaceProgram:
    """Parse the sources, merge them and resolve the result once.

    The solution file (if any) shadows the program, which shadows the
    library (the bundled prelude unless `lib_text` is given).
    """
    lib = parse(lib_text if lib_text is not None else prelude_text())
    program = parse(text)
    if solution_text is not None:
        # replacing the program's functions is what a solution is for
        program = merge_programs(parse(solution_text), program, "program", warn=False)
    return resolve(merge_programs(program, lib))


@dataclass
class Prepared:
    expanded: ExpandedProgram
    shape: SpecShape | None
    report: ClassificationReport | None


def _only_harness(program: SurfaceProgram) -> FuncDecl:
    harnesses = program.harnesses
    if not harnesses:
        raise SynrecError("program has no harness")
    if len(harnesses) > 1:
        raise SynrecError("exactly one harness per program is supported")
    return harnesses[0]


def prepare(program: SurfaceProgram, cfg: SynthesisConfig) -> Prepared:
    expanded = expand_program(program, cfg.expansion_context())
    shape = detect_spec_shape(expanded.program, _only_harness(expanded.program))
    report = None
    if shape is not None:
        report = classify_transformer(
            expanded.program.function(shape.trans), shape.source_adt
        )
        log.info(
            "inductive shape: trans=%s interp_s=%s interp_d=%s (%s)",
            shape.trans,
            shape.interp_s,
            shape.interp_d,
            report.verdict,
        )
    return Prepared(expanded, shape, report)


def synthesize(text: str, cfg: SynthesisConfig, lib_text: str | None = None) -> SynthesisResult:
    program = load_with_library(text, lib_text)
    prep = prepare(program, cfg)
    return run_cegis(prep.expanded, cfg, prep.shape, prep.report)


def check_concrete(
    base_text: str,
    cfg: SynthesisConfig,
    solution_text: str | None = None,
    lib_text: str | None = None,
) -> VerifyResult:
    """Bounded verification of a concrete program.

    With `solution_text`, its function definitions replace the same-named
    functions of the base program (the original harness file).  The result
    must be free of synthesis constructs.  It is checked by value classes
    when `compile_run` allows it, exhaustively otherwise; both strategies
    give the same verdict and counterexample.  Raises `SynthesisTimeout`
    when the check runs past `cfg.timeout_secs`.
    """
    deadline = time.monotonic() + cfg.timeout_secs
    prep = prepare(load_with_library(base_text, lib_text, solution_text), cfg)
    if prep.expanded.control_space:
        raise SynrecError(
            f"solution still contains {len(prep.expanded.control_space)} synthesis constructs"
        )
    compiled, _, classes = compile_run(prep.expanded, cfg, prep.shape, prep.report)
    return verify(prep.expanded, {}, cfg, classes, deadline, compiled)
