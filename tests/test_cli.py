import json
import logging

import pytest

from synrec.cli import main
from synrec.parser import parse_program

import toys
from conftest import CORPUS


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
        "counterexamples",
        "wall_ms",
        "per_arm",
        "status",
    }
    assert data["status"] == "solved"
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
        run_cli("synth", CORPUS / "lang.synrec", "--timeout-secs", "0", "--stats", stats)
        == 3
    )
    # no arm was searched, so none counts as solved
    assert capsys.readouterr().err.strip() == "timeout"
    arms = json.loads(stats.read_text())["per_arm"]
    assert len(arms) == 5 and not any(a["solved"] for a in arms)


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


def test_check_timeout_exits_3(capsys):
    # the deadline stops the check before its first input
    assert run_cli("check", CORPUS / "lang.expected.synrec", "--timeout-secs", "0") == 3
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
    code = run_cli("bench", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("benchmark\tsolved\twall_ms")
    assert lines[1].startswith("toy\tyes")


def test_bench_reports_expected_check_timeout(tmp_path, capsys):
    for name in ("lang", "lang.expected"):
        (tmp_path / f"{name}.synrec").write_text((CORPUS / f"{name}.synrec").read_text())
    assert run_cli("bench", tmp_path, "--timeout-secs", "0") == 0
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
