"""Replay the golden CLI corpus (tests/golden, made by tests/make_golden.py)
in-process and compare every byte: stdout, stderr, exit code and each file
written; and the table of library outputs, tests/golden/library.json.  The
corpus is the same on every supported Python."""

import json
import os
import sys
from pathlib import Path

import pytest

from kappamath.cli import main
from make_golden import SRC, files_under, json_lines, kappamath_command, library_table

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_golden_corpus(case, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("COLUMNS", "80")
    if case["kappa_out_dir"]:
        monkeypatch.setenv("KAPPA_OUT_DIR", str(work / "out"))
    else:
        monkeypatch.delenv("KAPPA_OUT_DIR", raising=False)
    try:
        code = main(case["args"])
    except SystemExit as exc:  # argparse: --help, usage errors
        code = exc.code
    out, err = capsys.readouterr()
    expected = GOLDEN / case["name"]
    assert code == case["exit"]
    assert out.encode() == (expected / "stdout").read_bytes()
    assert err.encode() == (expected / "stderr").read_bytes()
    files = expected / "files"
    assert files_under(work) == (files_under(files) if files.is_dir() else {})


def test_corpus_covers_every_command_and_exit_code():
    commands = {case["args"][0] for case in CASES if case["args"]}
    assert {"eval", "solve", "series", "compare", "slope-field", "logistic"} <= commands
    assert {case["exit"] for case in CASES} == {0, 2, 3}
    assert len({case["name"] for case in CASES}) == len(CASES)


def test_plain_parser_and_argparse_print_the_same_bytes():
    # --kappa is read by the plain-grammar parser, the abbreviation --kap
    # only by argparse
    plain = (GOLDEN / "solve-kappa-negative" / "stdout").read_bytes()
    assert plain and plain == (GOLDEN / "solve-kappa-abbreviated" / "stdout").read_bytes()


def test_library_outputs_match_golden_table():
    # the closed forms, traces and reports, bit for bit; the calls whose
    # output moved are named
    text = (GOLDEN / "library.json").read_text(encoding="utf-8")
    got = library_table()
    assert [g["call"] for g, w in zip(got, json.loads(text)) if g != w] == []
    assert json_lines(got) == text


def test_make_golden_runs_the_entry_point_or_the_checkouts_source():
    # the installed entry point where there is one; else this interpreter
    # on kappamath.cli, with the checkout's src first on PYTHONPATH
    assert kappamath_command("/usr/bin/kappamath", "/elsewhere") == (["kappamath"], {})
    command = [sys.executable, "-m", "kappamath.cli"]
    assert kappamath_command(None, None) == (command, {"PYTHONPATH": str(SRC)})
    assert kappamath_command(None, "") == (command, {"PYTHONPATH": str(SRC)})
    assert kappamath_command(None, "/elsewhere") == (
        command, {"PYTHONPATH": str(SRC) + os.pathsep + "/elsewhere"})
    assert (SRC / "kappamath" / "cli.py").is_file()
