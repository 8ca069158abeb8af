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
import sys
import time
from pathlib import Path

from .cegis import SOLVED, TIMEOUT, UNSAT, VALUE_CLASS, SynthesisTimeout
from .errors import SynrecError
from .evaluator import format_value
from .expand import expand_program
from .pipeline import (
    check_concrete,
    config_for,
    load_with_library,
    parse_range,
    synthesize,
)
from .printer import pretty_print_program
from .prelude import prelude_text

log = logging.getLogger("synrec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2
EXIT_TIMEOUT = 3


# Configuration flags; each subcommand takes only the ones it reads.
_FLAGS = {
    "--input-depth": {"type": int, "metavar": "N"},
    "--int-domain": {"metavar": "LO..HI"},
    "--hole-domain": {"metavar": "LO..HI"},
    "--inline-bound": {"type": int, "metavar": "N"},
    "--unroll": {"type": int, "metavar": "N"},
    "--timeout-secs": {"type": float, "metavar": "N"},
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
    given = vars(args)
    overrides: dict = {
        "input_depth": given.get("input_depth"),
        "inline_bound": given.get("inline_bound"),
        "unroll_depth": given.get("unroll"),
        "timeout_secs": given.get("timeout_secs"),
    }
    if given.get("int_domain") is not None:
        lo, hi = parse_range(given["int_domain"])
        overrides["int_domain"] = tuple(range(lo, hi + 1))
    if given.get("hole_domain") is not None:
        lo, hi = parse_range(given["hole_domain"])
        overrides["hole_lo"], overrides["hole_hi"] = lo, hi
    if given.get("no_indecomp"):
        overrides["indecomp"] = False
    return overrides


def _library_text(args) -> str:
    if args.lib:
        return Path(args.lib).read_text()
    env = os.environ.get("SYNREC_LIB")
    if env:
        return Path(env).read_text()
    return prelude_text()


def _read_input(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise SynrecError(f"no such file: {path}")
    return p.read_text()


def cmd_synth(args) -> int:
    text = _read_input(args.input)
    cfg = config_for(text, _cli_overrides(args))
    result = synthesize(text, cfg, _library_text(args))
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
    program = load_with_library(text, _library_text(args))
    expanded = expand_program(program, cfg.expansion_context())
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
        vr = check_concrete(base, cfg, solution_text=solution, lib_text=_library_text(args))
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
    rows = []
    for path in entries:
        rows.append(_bench_one(path, args))
    print(
        "benchmark\tsolved\twall_ms\tevaluations\twall_ms_noopt\tevals_noopt"
        "\tspeedup\texpected_ok"
    )
    for row in rows:
        print("\t".join(str(c) for c in row))
    return EXIT_OK


def _bench_one(path: Path, args) -> tuple:
    name = path.stem
    text = path.read_text()
    lib = _library_text(args)
    results = {}
    for label, indecomp in (("opt", True), ("unopt", False)):
        overrides = _cli_overrides(args)
        overrides["indecomp"] = indecomp and overrides.get("indecomp", True)
        cfg = config_for(text, overrides)
        start = time.monotonic()
        try:
            res = synthesize(text, cfg, lib)
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
            vr = check_concrete(expected.read_text(), cfg, lib_text=lib)
            expected_ok = str(vr.passed)
        except SynthesisTimeout:
            expected_ok = "timeout"
        except SynrecError as err:
            log.error("%s [expected]: %s", name, err)
            expected_ok = "error"
    status, stats = results["opt"]
    ustatus, ustats = results["unopt"]
    wall = stats.wall_ms if stats else -1
    evals = stats.candidate_evaluations if stats else -1
    uwall = ustats.wall_ms if ustats else -1
    uevals = ustats.candidate_evaluations if ustats else -1
    speedup = round(uwall / wall, 2) if (stats and ustats and wall > 0) else "-"
    solved = "yes" if status == SOLVED else status
    if ustatus != SOLVED:
        solved += f"/unopt:{ustatus}"
    return (name, solved, wall, evals, uwall, uevals, speedup, expected_ok)


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
