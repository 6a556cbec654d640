import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spbw
from spbw.cli import main
from spbw.corpus import corpus_source


@pytest.fixture
def weyl_file(tmp_path):
    path = tmp_path / "weyl.spbw"
    path.write_text(corpus_source("weyl"), encoding="utf-8")
    return str(path)


def test_smooth_certifies_weyl(weyl_file, capsys):
    code = main(["smooth", weyl_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: certified-smooth" in out


def test_smooth_corpus_reference(capsys):
    code = main(["smooth", "corpus:poly2"])
    assert code == 0
    assert "certified-smooth" in capsys.readouterr().out


def test_smooth_broken_exits_one(capsys):
    code = main(["smooth", "corpus:broken"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: failed" in out


def test_check_pbw(capsys):
    assert main(["check", "pbw", "corpus:qaffine3"]) == 0
    assert main(["check", "pbw", "corpus:broken"]) == 1
    out = capsys.readouterr().out
    assert "x3*x2*x1" in out


def test_check_pbw_fails_a_delta_that_is_no_sigma_derivation(tmp_path, capsys):
    path = tmp_path / "badsder.spbw"
    path.write_text("name badsder\ncoeffs t1 t2\ngens x\nsigma x: t1 -> 2*t1\ndelta x: t2 -> 1\n",
                    encoding="utf-8")
    assert main(["check", "pbw", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pbw consistency: FAIL",
        "  witness word: x*(t2)*(t1)",
        "  leftmost reduction:  2*t1*t2*x + t1",
        "  rightmost reduction: 2*t1*t2*x + 2*t1",
    ]
    assert main(["smooth", str(path)]) == 1
    assert "verdict: failed (pbw-consistency" in capsys.readouterr().out


def test_check_hypotheses(capsys):
    assert main(["check", "hypotheses", "corpus:weyl"]) == 0
    out = capsys.readouterr().out
    assert "plain-twist block: pass" in out


def test_check_hypotheses_prints_each_failure(tmp_path, capsys):
    path = tmp_path / "ds.spbw"
    path.write_text(
        "name ds\ncoeffs t\ngens x1 x2\nsigma x1: t -> 2*t\ndelta x2: t -> t^2\nrel x2 x1 = x1 x2\n",
        encoding="utf-8",
    )
    assert main(["check", "hypotheses", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  deltas commute with sigmas           FAIL\n" in out
    assert out.endswith("  detail: delta-sigma pair (1, 0)\n")


def test_check_hypotheses_prints_every_failure(tmp_path, capsys):
    # 11 failures; the last one, a sigma that does not commute with its own
    # delta, is the one that fails the lift block
    path = tmp_path / "three.spbw"
    path.write_text(
        "name three\ncoeffs t\ngens x1 x2 x3\n"
        "sigma x1: t -> t + 1\ndelta x1: t -> 1\nsigma x2: t -> 2*t\ndelta x2: t -> t^2\n"
        "sigma x3: t -> 3*t\ndelta x3: t -> t\n"
        "rel x2 x1 = x1 x2\nrel x3 x1 = x1 x3\nrel x3 x2 = x2 x3\n",
        encoding="utf-8",
    )
    assert main(["check", "hypotheses", str(path)]) == 1
    details = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  detail: ")]
    assert len(details) == 11
    assert details[-1] == "  detail: sigma-delta pair 1"


def test_calculus_check(capsys):
    assert main(["calculus", "check", "corpus:jordan"]) == 0
    assert "dimension 2" in capsys.readouterr().out


def test_calculus_check_missing_block(capsys):
    code = main(["calculus", "check", "corpus:broken"])
    assert code == 2
    assert "calculus block" in capsys.readouterr().err


def test_normalize_command(capsys):
    assert main(["normalize", "corpus:weyl", "x2*x1*x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1^2*x2 - 2*x1"


def test_gkdim_command(capsys):
    assert main(["gkdim", "corpus:jordan", "--max-degree", "12"]) == 0
    out = capsys.readouterr().out
    assert "estimate: 2" in out


def test_json_report_written(weyl_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["report", weyl_file, "--json", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "certified-smooth"
    assert doc["schema"] == "spbw-report/1"


def test_report_requires_json(capsys):
    assert main(["report", "corpus:weyl"]) == 2
    assert capsys.readouterr().err == "error: report needs --json PATH\n"


COMMANDS = {
    "smooth": ["smooth", "corpus:poly2"],
    "report": ["report", "corpus:poly2"],
    "check": ["check", "pbw", "corpus:poly2"],
    "hypotheses": ["check", "hypotheses", "corpus:poly2"],
    "calculus": ["calculus", "check", "corpus:poly2"],
    "gkdim": ["gkdim", "corpus:poly2"],
}
FLAGS = ("--max-degree", "--samples", "--seed", "--json")
READS = {
    "smooth": FLAGS,
    "report": FLAGS,
    "check": (),
    "hypotheses": (),
    "calculus": (),
    "gkdim": ("--max-degree",),
}


@pytest.mark.parametrize("command,flag", [(c, f) for c in COMMANDS for f in FLAGS])
def test_each_command_takes_only_the_options_it_reads(command, flag, tmp_path, capsys):
    report = str(tmp_path / "r.json")
    argv = COMMANDS[command] + [flag, report if flag == "--json" else "8"]
    if command == "report" and flag != "--json":
        argv += ["--json", report]
    if flag in READS[command]:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.spbw"
    bad.write_text("name bad\ngens x1 x2\nrel x1 x2 = x2 x1\n", encoding="utf-8")
    assert main(["smooth", str(bad)]) == 2
    assert "relation-order" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["smooth", "no/such/file.spbw"]) == 2


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out.split()
    assert "weyl" in out and "broken" in out


def test_unknown_corpus_entry_exits_two(capsys):
    assert main(["smooth", "corpus:nosuch"]) == 2
    assert capsys.readouterr().err == "error: unknown corpus entry 'nosuch'\n"


def test_corpus_write(tmp_path, capsys):
    assert main(["corpus", "--write", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "aq.spbw").exists()


def test_seed_override_recorded(weyl_file, tmp_path, capsys):
    target = tmp_path / "r.json"
    assert main(["smooth", weyl_file, "--seed", "99", "--json", str(target)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["config"]["seed"] == 99


def test_an_override_replaces_the_value_a_document_sets(tmp_path, capsys):
    # a document sets each option at most once; the command line still
    # replaces that value
    path, target = tmp_path / "opts.spbw", tmp_path / "r.json"
    path.write_text(corpus_source("weyl") + "options seed=5\n", encoding="utf-8")
    assert main(["smooth", str(path), "--seed", "99", "--json", str(target)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["config"]["seed"] == 99


BAD_TWIST = (
    "name weyl\ngens x1 x2\nrel x2 x1 = x1 x2 - 1\n"
    "calculus mode=flat\ndgens x1 x2\ntwist x1: x2 -> 2*x2\n"
)


def test_relation_breaking_twist_is_an_error_record(tmp_path, capsys):
    path = tmp_path / "badtwist.spbw"
    path.write_text(BAD_TWIST, encoding="utf-8")
    target = tmp_path / "r.json"
    assert main(["smooth", str(path), "--json", str(target)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "failed"
    assert doc["failed_check"] == "compatibility"
    compat = next(c for c in doc["checks"] if c["name"] == "compatibility")
    assert compat["status"] == "error"
    assert compat["witnesses"] == ["relation x2*x1 not respected"]


def test_nonpositive_samples_rejected(capsys):
    assert main(["smooth", "corpus:weyl", "--samples", "-3"]) == 2
    # an override has no place in the document, so no line or column
    assert capsys.readouterr().err == "parse error: option samples must be at least 1, got -3 [option-range]\n"


@pytest.mark.parametrize("command", ["smooth", "gkdim"])
def test_small_max_degree_rejected(command, capsys):
    assert main([command, "corpus:weyl", "--max-degree", "5"]) == 2
    assert "option-range" in capsys.readouterr().err


def test_wrong_claimed_inverse_exits_two(tmp_path, capsys):
    path = tmp_path / "badinverse.spbw"
    path.write_text(
        "name bad\ncoeffs t\ngens x\nsigma x: t -> 2*t\nisigma x: t -> t\ncalculus mode=theorem\n",
        encoding="utf-8",
    )
    assert main(["smooth", str(path)]) == 2
    assert "claimed inverse does not undo" in capsys.readouterr().err


def _not_utf8(tmp):
    path = tmp / "latin1.spbw"
    path.write_bytes(b"name caf\xe9\n")
    return path


@pytest.mark.parametrize("make", [
    pytest.param(lambda tmp: tmp, id="directory"),
    pytest.param(lambda tmp: tmp / "no" / "such.spbw", id="missing"),
    pytest.param(_not_utf8, id="not-utf8"),
])
def test_unreadable_input_exits_two(make, tmp_path, capsys):
    assert main(["smooth", str(make(tmp_path))]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read input: ")


def test_directory_input_prints_no_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(spbw.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-m", "spbw", "smooth", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr and "cannot read input" in run.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(lambda tmp: ["smooth", "corpus:weyl", "--json", str(tmp)], id="report-to-directory"),
    pytest.param(lambda tmp: ["smooth", "corpus:weyl", "--json", str(tmp / "no" / "r.json")], id="report-missing-dir"),
    pytest.param(lambda tmp: ["corpus", "--write", str(_not_utf8(tmp))], id="corpus-to-file"),
])
def test_unwritable_output_exits_two(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


@pytest.mark.parametrize("argv", [
    pytest.param(["normalize", "corpus:weyl", "(" * 3000 + "x1" + ")" * 3000], id="parentheses"),
    pytest.param(["normalize", "corpus:weyl", "--", "-" * 5000 + "x1"], id="unary-minus"),
])
def test_deeply_nested_input_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "parse error: line 1, column 0: expression nested too deeply [too-deep]\n"


def test_a_deeply_nested_twist_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.spbw"
    twist = "twist x: x -> " + "(" * 2000 + "x" + ")" * 2000
    path.write_text(f"name d\ngens x\ncalculus mode=flat\ndgens x\n{twist}\n", encoding="utf-8")
    assert main(["smooth", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: line 5, column 0: expression nested too deeply [too-deep]\n"
