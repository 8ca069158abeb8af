import json
import logging
import os
import platform
import subprocess
import sys

import pytest

from synrec.cli import main
from synrec.errors import SynrecError
from synrec.parser import parse_program
from synrec.prelude import prelude_text

import toys
from conftest import CORPUS, ROOT, corpus_text, time_out_at_verify


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_missing_file_exits_1(tmp_path, capsys):
    assert run_cli("synth", tmp_path / "nope.synrec") == 1
    assert "error" in capsys.readouterr().err


def test_synth_elimbool(tmp_path, capsys):
    out = tmp_path / "out.synrec"
    stats = tmp_path / "stats.json"
    code = run_cli(
        "synth", CORPUS / "elimBool.synrec", "-o", out, "--stats", stats,
        "--timeout-secs", "120",
    )
    assert code == 0
    solution = parse_program(out.read_text())
    assert solution.function("elimBool") is not None
    data = json.loads(stats.read_text())
    # golden schema: these names are stable for the bench harness
    assert set(data) == {
        "iterations",
        "candidate_evaluations",
        "search_evaluations",
        "verify_evaluations",
        "skipped_candidates",
        "counterexamples",
        "wall_ms",
        "per_arm",
        "phases_ms",
        "verify_strategy",
        "verify_reason",
        "arm_instances",
        "status",
    }
    assert data["status"] == "solved"
    # elimBool's translation is a morphism over a stateless shape
    assert (data["verify_strategy"], data["verify_reason"]) == ("value-class", None)
    instances = data["arm_instances"]
    assert set(instances) == {"total", "unfolded", "compiled"}
    assert 0 < instances["unfolded"] < instances["total"]
    assert 0 < instances["compiled"] < instances["total"]
    assert data["search_evaluations"] > 0 and data["verify_evaluations"] > 0
    assert data["candidate_evaluations"] == (
        data["search_evaluations"] + data["verify_evaluations"]
    )
    assert list(data["phases_ms"]) == [
        "parse", "expand", "decompose", "compile", "search", "verify", "concretize",
    ]
    assert all(ms >= 0 for ms in data["phases_ms"].values())
    # parse and expand run before `run_cegis`, where `wall_ms` starts
    assert data["phases_ms"]["parse"] > 0 and data["phases_ms"]["expand"] > 0
    assert all(set(a) == {"variant", "solved", "ms"} for a in data["per_arm"])
    arms = [a["variant"] for a in data["per_arm"]]
    assert arms == ["TrueB", "FalseB", "NotB", "AndB", "OrB"]
    # the emitted solution re-checks clean
    assert run_cli("check", CORPUS / "elimBool.synrec", out) == 0


def test_check_expected_solution(capsys):
    code = run_cli("check", CORPUS / "lang.expected.synrec", "--input-depth", "2")
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_check_names_value_classes(capsys, caplog):
    with caplog.at_level(logging.INFO, logger="synrec"):
        code = run_cli("-v", "check", CORPUS / "lang.expected.synrec", "--input-depth", "2")
    assert code == 0
    assert capsys.readouterr().out == "pass: 74 inputs checked (value classes)\n"
    assert "verification by value classes" in caplog.text


def test_check_names_exhaustive_and_its_reason(tmp_path, capsys, caplog):
    f = tmp_path / "or.synrec"
    f.write_text(toys.SHORT_CIRCUIT)
    with caplog.at_level(logging.INFO, logger="synrec"):
        assert run_cli("-v", "check", f, "--input-depth", "2") == 0
    assert capsys.readouterr().out == "pass: 2 inputs checked (exhaustive)\n"
    assert "exhaustive verification: no inductive shape" in caplog.text


def test_synth_without_decomposition_does_not_classify(tmp_path, caplog, monkeypatch):
    import synrec.pipeline

    def fail(*args):
        raise AssertionError("classified with decomposition off")

    monkeypatch.setattr(synrec.pipeline, "classify_transformer", fail)
    with caplog.at_level(logging.INFO, logger="synrec"):
        code = run_cli(
            "-v", "synth", CORPUS / "elimBool.synrec", "--no-indecomp",
            "-o", tmp_path / "out.synrec",
        )
    assert code == 0
    assert "inductive shape: trans=elimBool" in caplog.text
    assert "(not classified: decomposition is off)" in caplog.text
    assert "exhaustive verification: decomposition is off" in caplog.text


def test_check_mutant_prints_counterexample(tmp_path, capsys):
    text = (CORPUS / "lang.expected.synrec").read_text()
    mutant = tmp_path / "mutant.synrec"
    mutant.write_text(
        text.replace(
            "case TrueS: return new BoolD(v = 1);",
            "case TrueS: return new BoolD(v = 0);",
        )
    )
    code = run_cli("check", CORPUS / "lang.synrec", mutant, "--input-depth", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert "TrueS" in err


def test_check_rejects_harnessless_file(tmp_path, capsys):
    f = tmp_path / "nh.synrec"
    f.write_text("adt L { N {} } int f(L l) { return 0; }")
    assert run_cli("check", f) == 1


def test_check_rejects_a_second_harness(tmp_path, capsys):
    f = tmp_path / "two.synrec"
    f.write_text(
        "adt L { N {} C { L t; } }\n"
        "harness void ok(L l) { assert(1); }\n"
        "harness void bad(L l) { assert(0); }\n"
    )
    assert run_cli("check", f, "--input-depth", "1") == 1
    assert "exactly one harness per program is supported" in capsys.readouterr().err


def test_check_wraps_arithmetic_at_64_bits(tmp_path, capsys):
    """(2^32)^2 wraps to 0, as in the reference evaluator."""
    f = tmp_path / "sq.synrec"
    f.write_text(
        "adt e { E { int v; } }\n"
        "int sq(e x) { switch (x) { case E: return x.v * x.v; } }\n"
        "harness void main(e x) { assert(sq(x) != 0); }\n"
    )
    code = run_cli(
        "check", f, "--int-domain", "4294967296..4294967296", "--input-depth", "1"
    )
    assert code == 2
    assert "x = E(v = 4294967296)" in capsys.readouterr().err


def test_check_short_circuits_statements(tmp_path, capsys):
    f = tmp_path / "or.synrec"
    f.write_text(toys.SHORT_CIRCUIT)
    assert run_cli("check", f, "--input-depth", "2") == 0
    assert "pass: 2 inputs checked" in capsys.readouterr().out


def test_check_rejects_residual_synthesis_constructs(tmp_path, capsys):
    f = tmp_path / "holes.synrec"
    f.write_text("adt L { N {} } int f(L l) { return ??; } harness void m(L l) { assert(f(l) == 0); }")
    assert run_cli("check", f) == 1
    assert "synthesis constructs" in capsys.readouterr().err


def test_unsat_exits_2(tmp_path):
    f = tmp_path / "unsat.synrec"
    f.write_text("adt L { N {} } harness void m(L l) { assert(1 == 2); }")
    assert run_cli("synth", f) == 2


def test_timeout_exits_3(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert (
        run_cli("synth", CORPUS / "lang.synrec", "--timeout-secs", "1e-9", "--stats", stats)
        == 3
    )
    # no arm was searched, so none counts as solved
    assert capsys.readouterr().err.strip() == "timeout"
    arms = json.loads(stats.read_text())["per_arm"]
    assert len(arms) == 5 and not any(a["solved"] for a in arms)


def test_timeout_names_the_arms_solved_so_far(capsys, monkeypatch):
    time_out_at_verify(monkeypatch, 3)
    assert run_cli("synth", CORPUS / "lang.synrec", "--input-depth", "2") == 3
    assert capsys.readouterr().err == "timeout; arms solved so far: NumS, TrueS\n"


def test_expand_dump_format(tmp_path, capsys):
    code = run_cli("expand", CORPUS / "lang.synrec", "--inline-bound", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("// control space:")
    assert "??#" in out and "choose#" in out
    desugar = out[out.index("dstAST desugar") : out.index("harness void")]
    for v in ("NumS", "TrueS", "FalseS", "BinaryS", "BetweenS"):
        assert desugar.count(f"case {v}:") == 1


def test_expand_concrete_program_has_no_points(capsys):
    code = run_cli("expand", CORPUS / "lang.expected.synrec")
    assert code == 0
    out = capsys.readouterr().out
    assert "// control space: 0 holes, 0 choices" in out
    assert "??#" not in out


def test_expand_field_of_field_fails(tmp_path, capsys):
    f = tmp_path / "ff.synrec"
    f.write_text(
        """
        adt A { MkA { int v; } }
        adt B { MkB { int w; } }
        B g(A x) { return field(field(x)); }
        harness void m(A x) { assert(1); }
        """
    )
    assert run_cli("expand", f) == 1


def test_pragma_sets_defaults(tmp_path):
    f = tmp_path / "p.synrec"
    f.write_text(
        "//! input-depth=1 timeout-secs=9\n"
        "adt L { N {} } harness void m(L l) { assert(1); }"
    )
    from synrec.pipeline import config_for

    cfg = config_for(f.read_text())
    assert cfg.input_depth == 1 and cfg.timeout_secs == 9.0
    cfg = config_for(f.read_text(), {"input_depth": 2})
    assert cfg.input_depth == 2


@pytest.mark.parametrize("value", [0.0, -5.0, float("nan")])
def test_config_for_rejects_a_timeout_that_is_not_positive(value):
    from synrec.pipeline import config_for

    text = "adt L { N {} } harness void m(L l) { assert(1); }"
    for args in ((f"//! timeout-secs={value}\n" + text,), (text, {"timeout_secs": value})):
        with pytest.raises(SynrecError) as err:
            config_for(*args)
        assert str(err.value) == f"timeout secs must be positive, got {value}"


# Malformed and out-of-range settings, by pragma key, with their message.
BAD_SETTINGS = {
    ("int-domain", "a..b"): "invalid value 'a..b' for int-domain (expected LO..HI)",
    ("input-depth", "0"): "input depth must be positive, got 0",
    ("input-depth", "x"): "invalid value 'x' for input-depth (expected N)",
    ("hole-domain", "3..1"): "hole domain 3..1 is empty",
    ("timeout-secs", "0"): "timeout secs must be positive, got 0.0",
    ("timeout-secs", "-5"): "timeout secs must be positive, got -5.0",
    ("timeout-secs", "nan"): "timeout secs must be positive, got nan",
}


@pytest.mark.parametrize("key,value", BAD_SETTINGS)
def test_bad_setting_prints_one_error_as_flag_and_as_pragma(tmp_path, capsys, key, value):
    # `check` takes no --hole-domain, and `synth` takes every flag
    command, name = ("synth", "lang") if key == "hole-domain" else ("check", "lang.expected")
    program = CORPUS / f"{name}.synrec"
    pragma = tmp_path / "pragma.synrec"
    pragma.write_text(f"//! {key}={value}\n" + program.read_text())
    for argv in ((program, f"--{key}", value), (pragma,)):
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == f"error: {BAD_SETTINGS[key, value]}\n"


def test_check_timeout_exits_3(capsys):
    # the deadline stops the check before its first input
    assert run_cli("check", CORPUS / "lang.expected.synrec", "--timeout-secs", "1e-9") == 3
    assert capsys.readouterr().err.strip() == "timeout"


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ("expand", CORPUS / "lang.synrec", "--no-indecomp"),
        ("expand", CORPUS / "lang.synrec", "--input-depth", "2"),
        ("check", CORPUS / "lang.expected.synrec", "--hole-domain", "0..1"),
        ("check", CORPUS / "lang.expected.synrec", "--no-indecomp"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_tiny_corpus(tmp_path, capsys):
    (tmp_path / "toy.synrec").write_text(
        "//! input-depth=2\n"
        "adt L { N {} C { L t; } }\n"
        "int size(L l) { switch (l) { case N: return 0; case C: return 1 + size(l.t); } }\n"
        "int size2(L l) { switch (l) { case N: return ??; case C: return 1 + size2(l.t); } }\n"
        "harness void m(L l) { assert(size2(l) == size(l)); }\n"
    )
    code = run_cli("bench", tmp_path, "--json", tmp_path / "bench.json")
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "benchmark", "solved", "wall_ms", "evaluations", "search_evals", "wall_ms_noopt",
        "evals_noopt", "search_evals_noopt", "speedup", "expected_ok",
    ]
    row = lines[1].split("\t")
    assert row[:2] == ["toy", "yes"] and len(row) == 10
    # the first candidate passes: every evaluation is the check's
    assert int(row[4]) == 0 < int(row[3])
    # golden schema of the trajectory file
    data = json.loads((tmp_path / "bench.json").read_text())
    assert set(data) == {"nproc", "python", "rows"}
    assert data["nproc"] >= 1 and data["python"] == platform.python_version()
    [entry] = data["rows"]
    assert set(entry) == {"benchmark", "expected_ok", "opt", "noopt"}
    assert (entry["benchmark"], entry["expected_ok"]) == ("toy", "-")
    for mode in ("opt", "noopt"):
        run = entry[mode]
        assert set(run) == {
            "status", "iterations", "search_evaluations", "verify_evaluations",
            "skipped_candidates", "wall_ms", "phases_ms", "verify_strategy", "verify_reason",
            "arm_instances",
        }
        assert run["verify_strategy"] == "exhaustive"
        assert run["arm_instances"] == {"total": 0, "unfolded": 0, "compiled": 0}
        assert run["status"] == "solved" and run["iterations"] == 1
        assert run["search_evaluations"] == 0 < run["verify_evaluations"]
        assert list(run["phases_ms"]) == [
            "parse", "expand", "decompose", "compile", "search", "verify", "concretize",
        ]
    assert entry["opt"]["verify_evaluations"] == int(row[3])
    assert entry["noopt"]["verify_evaluations"] == int(row[6])


def test_bench_reports_expected_check_timeout(tmp_path, capsys):
    for name in ("lang", "lang.expected"):
        (tmp_path / f"{name}.synrec").write_text((CORPUS / f"{name}.synrec").read_text())
    assert run_cli("bench", tmp_path, "--timeout-secs", "1e-9") == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
    assert row[0] == "lang" and row[-1] == "timeout"


def test_bench_empty_corpus(tmp_path, capsys):
    code = run_cli("bench", tmp_path)
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # header only


def test_lib_override(tmp_path):
    lib = tmp_path / "mylib.synrec"
    lib.write_text("generator int two() { return 2; }\n")
    f = tmp_path / "uses.synrec"
    f.write_text("adt L { N {} } int f(L l) { return two(); } harness void m(L l) { assert(f(l) == 2); }")
    assert run_cli("synth", f, "--lib", lib, "-o", tmp_path / "o.synrec") == 0


def test_lib_env_fallback(tmp_path, monkeypatch):
    lib = tmp_path / "envlib.synrec"
    lib.write_text("generator int three() { return 3; }\n")
    monkeypatch.setenv("SYNREC_LIB", str(lib))
    f = tmp_path / "uses.synrec"
    f.write_text("adt L { N {} } int f(L l) { return three(); } harness void m(L l) { assert(f(l) == 3); }")
    assert run_cli("synth", f, "-o", tmp_path / "o.synrec") == 0


# a syntax error at 1:41, the `;` after `+`
BROKEN = "dstAST desugar(srcAST src) { return 1 + ; }\n"


def test_syntax_error_names_the_solution_file(tmp_path, capsys):
    bad = tmp_path / "bad.synrec"
    bad.write_text(BROKEN)
    assert run_cli("check", CORPUS / "lang.synrec", bad, "--input-depth", "1") == 1
    assert capsys.readouterr().err == f"error: {bad}:1:41: unexpected token ';'\n"


def test_syntax_error_names_the_program_file(tmp_path, capsys):
    bad = tmp_path / "bad.synrec"
    bad.write_text(BROKEN)
    assert run_cli("synth", bad) == 1
    assert capsys.readouterr().err == f"error: {bad}:1:41: unexpected token ';'\n"


def test_syntax_error_names_the_lib_file(tmp_path, capsys):
    lib = tmp_path / "badlib.synrec"
    lib.write_text("generator int two() { return 2 }\n")
    assert run_cli("synth", CORPUS / "lIns.synrec", "--lib", lib) == 1
    assert capsys.readouterr().err == f"error: {lib}:1:32: expected ';', found '}}'\n"


def _with_bom(path, text):
    """Write `text` to `path` behind a UTF-8 byte-order mark."""
    path.write_text("\ufeff" + text, encoding="utf-8")
    return path


def test_byte_order_mark_checks_as_the_plain_file(tmp_path, capsys):
    argv = ["--input-depth", "2"]
    assert run_cli("check", CORPUS / "lang.synrec", CORPUS / "lang.expected.synrec", *argv) == 0
    plain = capsys.readouterr()
    program = _with_bom(tmp_path / "lang.synrec", (CORPUS / "lang.synrec").read_text())
    solution = _with_bom(tmp_path / "expected.synrec", corpus_text("lang.expected"))
    lib = _with_bom(tmp_path / "lib.synrec", prelude_text())
    assert run_cli("check", program, solution, "--lib", lib, *argv) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("role", ["program", "solution", "lib"])
def test_byte_order_mark_keeps_error_spans(tmp_path, capsys, role):
    """A syntax error on the first line of a file with a byte-order mark is
    at the same line:col as in the plain file."""
    lib = "generator int two() { return 2 }\n"
    texts = {"program": BROKEN, "solution": BROKEN, "lib": lib}
    bad = _with_bom(tmp_path / "bad.synrec", texts[role])
    argv = {
        "program": ["synth", bad],
        "solution": ["check", CORPUS / "lang.synrec", bad, "--input-depth", "1"],
        "lib": ["synth", CORPUS / "lIns.synrec", "--lib", bad],
    }[role]
    assert run_cli(*argv) == 1
    error = "1:32: expected ';', found '}'" if role == "lib" else "1:41: unexpected token ';'"
    assert capsys.readouterr().err == f"error: {bad}:{error}\n"


# Errors found after the sources are merged name the file of the
# declaration they are in: a call of an unknown function at 2:21, and a
# field of an unknown type at 1:9.
UNKNOWN_CALL = """adt E { A {} }
int f(E e) { return g(e); }
harness void main(E e) { assert(f(e) == 0); }
"""
UNKNOWN_TYPE = """adt E { A { bool v; } }
harness void main(E e) { assert(1 == 1); }
"""


@pytest.mark.parametrize("command", ["synth", "check"])
@pytest.mark.parametrize(
    "text,error",
    [
        (UNKNOWN_CALL, "2:21: call to unknown function 'g' in 'f'"),
        (UNKNOWN_TYPE, "1:9: unknown type 'bool'"),
    ],
)
def test_resolve_error_names_the_program_file(tmp_path, capsys, command, text, error):
    bad = tmp_path / "bad.synrec"
    bad.write_text(text)
    assert run_cli(command, bad) == 1
    assert capsys.readouterr().err == f"error: {bad}:{error}\n"


@pytest.mark.parametrize(
    "text,error",
    [
        (
            "dstAST desugar(srcAST src) { return g(src); }\n",
            "1:37: call to unknown function 'g' in 'desugar'",
        ),
        (
            "dstAST desugar(srcAST src) { return src; }\n",
            "1:37: 'src' has type srcAST, required dstAST",
        ),
    ],
)
def test_resolve_and_expand_errors_name_the_solution_file(tmp_path, capsys, text, error):
    bad = tmp_path / "bad.synrec"
    bad.write_text(text)
    assert run_cli("check", CORPUS / "lang.synrec", bad, "--input-depth", "1") == 1
    assert capsys.readouterr().err == f"error: {bad}:{error}\n"


def test_expand_error_in_a_template_names_the_library(tmp_path, capsys):
    lib = tmp_path / "lib.synrec"
    lib.write_text("generator int two(int x) { return choose(x.v, x.w); }\n")
    f = tmp_path / "uses.synrec"
    f.write_text("adt L { N {} } int f(L l) { return two(1); } harness void m(L l) { assert(f(l) == 2); }")
    assert run_cli("synth", f, "--lib", lib) == 1
    err = capsys.readouterr().err
    assert err == f"error: {lib}:1:35: no alternative of this choice fits the required type int\n"


def test_expand_error_in_a_generator_lambda_names_its_caller(tmp_path, capsys):
    """An expression passed as a `fun` is expanded inside the generator's
    body, but its errors name the file it was written in."""
    lib = tmp_path / "lib.synrec"
    lib.write_text("\n\ngenerator T apply<T>(fun e) { return e(); }\n")
    f = tmp_path / "genlam.synrec"
    f.write_text(
        "adt L { N {} }\n"
        "bit f(L l) { return apply(5); }\n"
        "harness void m(L l) { assert(f(l) == 1); }\n"
    )
    assert run_cli("synth", f, "--lib", lib) == 1
    assert capsys.readouterr().err == f"error: {f}:2:27: literal 5 cannot have type bit\n"


def run_script(name, *args, cwd):
    """Run `scripts/<name>` as from a bare checkout: without site packages
    and without PYTHONPATH, so only the script can put `src/` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-S", str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_from_a_bare_checkout(tmp_path):
    done = run_script("scaling_experiment.py", "--min", "2", "--max", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert row.split("\t")[:2] == ["2", "solved"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "lIns.synrec").write_text((CORPUS / "lIns.synrec").read_text())
    done = run_script("run_bench.py", corpus, "--json", tmp_path / "bench.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    [entry] = json.loads((tmp_path / "bench.json").read_text())["rows"]
    assert entry["benchmark"] == "lIns"
    assert entry["opt"]["status"] == entry["noopt"]["status"] == "solved"


def test_importing_the_cli_defines_no_dataclass_and_defers_subcommand_code():
    # start-up is most of a one-shot command: records are defined without
    # `dataclasses` (which imports `inspect`), and the printer, `json` and
    # `platform` wait for the commands that use them
    script = (
        "import sys, synrec.cli\n"
        "late = ('dataclasses', 'inspect', 'json', 'platform', 'synrec.printer')\n"
        "print(*[m for m in late if m in sys.modules])\n"
        "import synrec.printer, synrec.scaling\n"
        "print(*[m for m in late[:2] if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n\n"
