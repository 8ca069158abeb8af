"""Command-line driver.

Subcommands: `synth` (run the full pipeline and emit a verified solution),
`expand` (dump the expanded program with annotated control points),
`check` (bounded re-verification of a concrete solution), and `bench`
(run the corpus with and without inductive decomposition and tabulate).

Exit codes: 0 success/solved, 1 usage or input errors, 2 unsatisfiable or
failed verification, 3 timeout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

from .cegis import SOLVED, TIMEOUT, UNSAT, VALUE_CLASS, SynthesisTimeout
from .errors import SynrecError
from .evaluator import format_value
from .expand import expand_program
from .instances import force_expansion
from .pipeline import (
    SETTINGS,
    check_concrete,
    config_for,
    load_with_library,
    setting,
    synthesize,
)
from .printer import pretty_print_program
from .prelude import PRELUDE, prelude_text

log = logging.getLogger("synrec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2
EXIT_TIMEOUT = 3


# Configuration flags; each subcommand takes only the ones it reads.
_FLAGS = {
    **{f"--{key}": {"metavar": form} for key, (form, _) in SETTINGS.items()},
    "--no-indecomp": {"action": "store_true", "help": "disable inductive decomposition"},
    "--lib": {"metavar": "PATH", "help": "template library override"},
}
_EXPAND_FLAGS = ("--hole-domain", "--inline-bound", "--lib")
_CHECK_FLAGS = (
    "--input-depth", "--int-domain", "--inline-bound", "--unroll", "--timeout-secs", "--lib",
)


def _add_config_flags(p: argparse.ArgumentParser, flags=tuple(_FLAGS)) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _cli_overrides(args) -> dict:
    """The `SynthesisConfig` fields that the given flags set."""
    given = vars(args)
    overrides: dict = {}
    for key in SETTINGS:
        text = given.get(key.replace("-", "_"))
        if text is not None:
            overrides.update(setting(key, text))
    if given.get("no_indecomp"):
        overrides["indecomp"] = False
    return overrides


def _library(args) -> dict:
    """The template library's text and name, as keyword arguments of the
    pipeline's entry points."""
    path = args.lib or os.environ.get("SYNREC_LIB")
    if path:
        return {"lib_text": _read_text(Path(path)), "lib_source": path}
    return {"lib_text": prelude_text(), "lib_source": PRELUDE}


def _read_text(path: Path) -> str:
    """A source file's text, without the byte-order mark that some editors
    put at the start of a UTF-8 file."""
    return path.read_text(encoding="utf-8-sig")


def _read_input(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise SynrecError(f"no such file: {path}")
    return _read_text(p)


def cmd_synth(args) -> int:
    text = _read_input(args.input)
    cfg = config_for(text, _cli_overrides(args))
    result = synthesize(text, cfg, source=args.input, **_library(args))
    stats = result.stats.to_json()
    stats["status"] = result.status
    if args.stats:
        Path(args.stats).write_text(json.dumps(stats, indent=2) + "\n")
    if result.status == SOLVED:
        solution_text = pretty_print_program(result.solution)
        if args.output:
            Path(args.output).write_text(solution_text)
        else:
            sys.stdout.write(solution_text)
        log.info(
            "solved in %d iterations, %d evaluations, %d ms",
            stats["iterations"],
            stats["candidate_evaluations"],
            stats["wall_ms"],
        )
        return EXIT_OK
    if result.status == UNSAT:
        print("unsatisfiable: no control assignment passes the bounded check", file=sys.stderr)
        return EXIT_UNSAT
    if result.status == TIMEOUT:
        solved_arms = [a.variant for a in result.stats.per_arm if a.solved]
        if solved_arms:
            print(f"timeout; arms solved so far: {', '.join(solved_arms)}", file=sys.stderr)
        else:
            print("timeout", file=sys.stderr)
        return EXIT_TIMEOUT
    raise SynrecError(f"unknown status {result.status}")


def cmd_expand(args) -> int:
    text = _read_input(args.input)
    cfg = config_for(text, _cli_overrides(args))
    program = load_with_library(text, source=args.input, **_library(args))
    expanded = force_expansion(expand_program(program, cfg.expansion_context()))
    holes = sum(1 for p in expanded.control_space if p.kind == "hole")
    choices = len(expanded.control_space) - holes
    lines = [
        f"// control space: {holes} holes, {choices} choices",
        pretty_print_program(expanded.program, debug=True),
    ]
    out = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_check(args) -> int:
    base = _read_input(args.input)
    solution = _read_input(args.solution) if args.solution else None
    cfg = config_for(base, _cli_overrides(args))
    try:
        vr = check_concrete(
            base,
            cfg,
            solution_text=solution,
            source=args.input,
            solution_source=args.solution,
            **_library(args),
        )
    except SynthesisTimeout:
        print("timeout", file=sys.stderr)
        return EXIT_TIMEOUT
    if vr.passed:
        strategy = "value classes" if vr.strategy == VALUE_CLASS else "exhaustive"
        print(f"pass: {vr.evaluations} inputs checked ({strategy})")
        return EXIT_OK
    parts = ", ".join(f"{k} = {format_value(v)}" for k, v in vr.counterexample.items())
    print(f"counterexample: {parts} ({vr.failure})", file=sys.stderr)
    return EXIT_UNSAT


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise SynrecError(f"no such corpus directory: {args.corpus}")
    entries = sorted(
        p for p in corpus.glob("*.synrec") if not p.name.endswith(".expected.synrec")
    )
    runs = [_bench_one(path, args) for path in entries]
    print(
        "benchmark\tsolved\twall_ms\tevaluations\tsearch_evals\twall_ms_noopt"
        "\tevals_noopt\tsearch_evals_noopt\tspeedup\texpected_ok"
    )
    for row, _ in runs:
        print("\t".join(str(c) for c in row))
    if args.json:
        report = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "rows": [entry for _, entry in runs],
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# what `bench --json` keeps of each run's stats
_BENCH_JSON_KEYS = (
    "iterations", "search_evaluations", "verify_evaluations", "skipped_candidates", "wall_ms",
    "phases_ms", "verify_strategy", "verify_reason", "arm_instances",
)


def _bench_one(path: Path, args) -> tuple[tuple, dict]:
    """One corpus entry's TSV row, and its entry of the `--json` report."""
    name = path.stem
    text = _read_text(path)
    lib = _library(args)
    results = {}
    for label, indecomp in (("opt", True), ("noopt", False)):
        overrides = _cli_overrides(args)
        overrides["indecomp"] = indecomp and overrides.get("indecomp", True)
        cfg = config_for(text, overrides)
        start = time.monotonic()
        try:
            res = synthesize(text, cfg, source=str(path), **lib)
            results[label] = (res.status, res.stats)
        except SynrecError as err:
            log.error("%s [%s]: %s", name, label, err)
            results[label] = ("error", None)
        log.info("%s [%s] done in %.1fs", name, label, time.monotonic() - start)
    expected_ok = "-"
    expected = path.with_name(f"{name}.expected.synrec")
    if expected.exists():
        cfg = config_for(text, _cli_overrides(args))
        try:
            vr = check_concrete(_read_text(expected), cfg, source=str(expected), **lib)
            expected_ok = str(vr.passed)
        except SynthesisTimeout:
            expected_ok = "timeout"
        except SynrecError as err:
            log.error("%s [expected]: %s", name, err)
            expected_ok = "error"
    status, stats = results["opt"]
    ustatus, ustats = results["noopt"]
    wall, evals, search = _bench_counts(stats)
    uwall, uevals, usearch = _bench_counts(ustats)
    speedup = round(uwall / wall, 2) if (stats and ustats and wall > 0) else "-"
    solved = "yes" if status == SOLVED else status
    if ustatus != SOLVED:
        solved += f"/unopt:{ustatus}"
    row = (name, solved, wall, evals, search, uwall, uevals, usearch, speedup, expected_ok)
    entry = {"benchmark": name, "expected_ok": expected_ok}
    for label, (mode_status, mode_stats) in results.items():
        data = {} if mode_stats is None else mode_stats.to_json()
        entry[label] = {"status": mode_status} | {key: data.get(key) for key in _BENCH_JSON_KEYS}
    return row, entry


def _bench_counts(stats) -> tuple:
    """A run's wall ms, evaluations and search evaluations; -1 each when
    the run failed."""
    if stats is None:
        return -1, -1, -1
    return stats.wall_ms, stats.candidate_evaluations, stats.search_evaluations


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="synrec",
        description="Synthesis of recursive ADT transformations from reusable templates",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a solution for a harness file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, metavar="PATH")
    p.add_argument("--stats", default=None, metavar="PATH")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("expand", help="dump the expanded program")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, metavar="PATH")
    _add_config_flags(p, _EXPAND_FLAGS)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("check", help="bounded verification of a concrete solution")
    p.add_argument("input", help="harness file")
    p.add_argument("solution", nargs="?", default=None, help="solution file (optional)")
    _add_config_flags(p, _CHECK_FLAGS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="run a corpus with and without decomposition")
    p.add_argument("corpus")
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write each run's status, counts and phase times as JSON",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except SynrecError as err:
        print(f"error: {err.render()}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
