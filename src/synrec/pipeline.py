"""End-to-end wiring: parse -> library merge -> resolution -> expansion ->
shape detection -> decomposition -> CEGIS -> concrete solution.

Also handles the per-file configuration pragma: a leading comment line of
the form ``//! key=value key=value`` (keys mirror the CLI flags, and
`SETTINGS` converts both) supplies benchmark-specific bounds; explicit CLI
flags win over pragmas.
"""

from __future__ import annotations

import logging
import time

from .ast import FuncDecl, SurfaceProgram, record
from .cegis import (
    PHASES,
    SynthesisConfig,
    SynthesisResult,
    VerifyResult,
    add_phase,
    compile_run,
    run_cegis,
    verify,
)
from .errors import SynrecError
from .expand import ExpandedProgram, expand_program
from .indecomp import ClassificationReport, SpecShape, classify_transformer, detect_spec_shape
from .parser import merge_programs, parse, resolve
from .prelude import PRELUDE, prelude_text

log = logging.getLogger("synrec")

def _domain(text: str) -> tuple[int, int]:
    """The bounds of an inclusive range `LO..HI`."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(text)
    return int(lo), int(hi)


def _int_domain(text: str) -> dict:
    lo, hi = _domain(text)
    return {"int_domain": tuple(range(lo, hi + 1))}


def _hole_domain(text: str) -> dict:
    lo, hi = _domain(text)
    return {"hole_lo": lo, "hole_hi": hi}


# The configuration settings by pragma key, which is also the CLI flag
# without its `--`: the form of the value, and the converter of its text
# to `SynthesisConfig` fields.
SETTINGS = {
    "input-depth": ("N", lambda text: {"input_depth": int(text)}),
    "int-domain": ("LO..HI", _int_domain),
    "hole-domain": ("LO..HI", _hole_domain),
    "inline-bound": ("N", lambda text: {"inline_bound": int(text)}),
    "unroll": ("N", lambda text: {"unroll_depth": int(text)}),
    "timeout-secs": ("N", lambda text: {"timeout_secs": float(text)}),
}


def setting(key: str, text: str) -> dict:
    """The `SynthesisConfig` fields that setting `key` sets to `text`."""
    form, convert = SETTINGS[key]
    try:
        return convert(text)
    except ValueError:
        raise SynrecError(f"invalid value {text!r} for {key} (expected {form})") from None


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
            if not sep or key not in SETTINGS:
                raise SynrecError(f"unknown pragma {item!r}")
            overrides.update(setting(key, value))
    return overrides


def config_for(text: str, overrides: dict | None = None) -> SynthesisConfig:
    """The configuration of a run on `text`: its pragmas, with the fields
    in `overrides` taking precedence."""
    return SynthesisConfig(**parse_pragmas(text) | (overrides or {}))


def load_with_library(
    text: str,
    lib_text: str | None = None,
    solution_text: str | None = None,
    *,
    source: str | None = None,
    lib_source: str | None = None,
    solution_source: str | None = None,
) -> SurfaceProgram:
    """Parse the sources, merge them and resolve the result once.

    The solution file (if any) shadows the program, which shadows the
    library (the bundled prelude unless `lib_text` is given).  A parse
    error names the source it is in: `source`, `solution_source`,
    `lib_source`, or `<prelude>` for the bundled library.
    """
    if lib_text is None:
        lib_text, lib_source = prelude_text(), PRELUDE
    lib = parse(lib_text, lib_source)
    program = parse(text, source)
    if solution_text is not None:
        # replacing the program's functions is what a solution is for
        program = merge_programs(
            parse(solution_text, solution_source), program, "program", warn=False
        )
    return resolve(merge_programs(program, lib))


@record
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


def prepare(
    program: SurfaceProgram, cfg: SynthesisConfig, phases: dict | None = None
) -> Prepared:
    """Expand the program, detect its inductive shape and, when
    decomposition is on, classify its translation (else `report` is None),
    adding the time spent to the `expand` and `decompose` entries of
    `phases`."""
    start = time.perf_counter()
    expanded = expand_program(program, cfg.expansion_context())
    start = add_phase(phases, "expand", start)
    shape = detect_spec_shape(expanded.program, _only_harness(expanded.program))
    report = None
    if shape is not None:
        if cfg.indecomp:
            report = classify_transformer(
                expanded.program.function(shape.trans), shape.source_adt
            )
        log.info(
            "inductive shape: trans=%s interp_s=%s interp_d=%s (%s)",
            shape.trans,
            shape.interp_s,
            shape.interp_d,
            "not classified: decomposition is off" if report is None else report.verdict,
        )
    add_phase(phases, "decompose", start)
    return Prepared(expanded, shape, report)


def synthesize(
    text: str,
    cfg: SynthesisConfig,
    lib_text: str | None = None,
    *,
    source: str | None = None,
    lib_source: str | None = None,
) -> SynthesisResult:
    """Load, expand and synthesize; `stats.phases` also holds the time the
    load (`parse`) and the expansion took.  `source` and `lib_source`
    name the inputs in parse errors (see `load_with_library`)."""
    start = time.perf_counter()
    program = load_with_library(text, lib_text, source=source, lib_source=lib_source)
    phases = dict.fromkeys(PHASES, 0.0)
    add_phase(phases, "parse", start)
    prep = prepare(program, cfg, phases)
    return run_cegis(prep.expanded, cfg, prep.shape, prep.report, phases)


def check_concrete(
    base_text: str,
    cfg: SynthesisConfig,
    solution_text: str | None = None,
    lib_text: str | None = None,
    *,
    source: str | None = None,
    solution_source: str | None = None,
    lib_source: str | None = None,
) -> VerifyResult:
    """Bounded verification of a concrete program.

    With `solution_text`, its function definitions replace the same-named
    functions of the base program (the original harness file).  The result
    must be free of synthesis constructs.  It is checked by value classes
    when `compile_run` allows it, exhaustively otherwise; both strategies
    give the same verdict and counterexample.  Raises `SynthesisTimeout`
    when the check runs past `cfg.timeout_secs`.  The `*_source` names
    label the inputs in parse errors (see `load_with_library`).
    """
    deadline = time.monotonic() + cfg.timeout_secs
    program = load_with_library(
        base_text,
        lib_text,
        solution_text,
        source=source,
        lib_source=lib_source,
        solution_source=solution_source,
    )
    prep = prepare(program, cfg)
    if prep.expanded.control_space:
        raise SynrecError(
            f"solution still contains {len(prep.expanded.control_space)} synthesis constructs"
        )
    compiled, _, classes = compile_run(prep.expanded, cfg, prep.shape, prep.report)
    return verify(prep.expanded, {}, cfg, classes, deadline, compiled)
