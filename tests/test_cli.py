import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kappamath
from kappamath import (
    ConvergenceError,
    DecayProblem,
    DomainError,
    Kappa,
    LogisticProblem,
    analytic_trace,
    error_ladder,
    kappa_exp,
    to_kappa_number,
)
from kappamath.cli import (
    _COMMANDS,
    _OPTIONS,
    _build_parser,
    _linspace,
    _parse_plain,
    _specs,
    _write_table,
    main,
)
from kappamath.ode import MAX_POINTS, SOLVERS


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_exp(capsys):
    rc, out, _ = run(capsys, "eval", "--fn", "exp", "--kappa", "0.5", "--x", "1")
    assert rc == 0
    assert out.strip() == "2.6180339887498949"


def test_eval_ln_at_one(capsys):
    rc, out, _ = run(capsys, "eval", "--fn", "ln", "--kappa", "0.5", "--x", "1")
    assert rc == 0
    assert float(out) == 0.0


def test_eval_kappa_out_of_range(capsys):
    rc, _, err = run(capsys, "eval", "--fn", "exp", "--kappa", "1.5", "--x", "1")
    assert rc == 2
    assert "kappa out of range" in err


def test_eval_kappa_not_a_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "exp", "--kappa", "abc", "--x", "1"])
    assert exc.value.code == 2
    assert "argument --kappa: need a finite number, got 'abc'" in capsys.readouterr().err


def test_eval_arity_checks(capsys):
    rc, _, err = run(capsys, "eval", "--fn", "sum", "--kappa", "0.5", "--x", "1")
    assert rc == 2 and "--y" in err
    rc, _, _ = run(capsys, "eval", "--fn", "exp", "--kappa", "0.5", "--x", "1", "--y", "2")
    assert rc == 2


def test_eval_product_overflow_prints_inf(capsys):
    rc, out, err = run(capsys, "eval", "--fn", "product", "--kappa", "0.5",
                       "--x", "1e10", "--y", "1e10")
    assert rc == 0
    assert out.strip() == "inf"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, want", [
    (("--fn", "exp", "--kappa", "0.99", "--x", "1e308"), "inf"),
    (("--fn", "sum", "--kappa", "0", "--x", "1e308", "--y", "1e308"), "inf"),
    (("--fn", "ln", "--kappa", "0.99", "--x", "5e-324"), "-inf")],
    ids=["exp", "sum", "ln"])
def test_eval_correctly_rounded_overflow_prints_inf(capsys, argv, want):
    # exp_k(1e308), 1e308 (+)_0 1e308 and ln_0.99(5e-324), about -5.98e319,
    # exceed the float range: +-inf is their correctly rounded value, as for
    # the kappa-product above
    rc, out, err = run(capsys, "eval", *argv)
    assert rc == 0
    assert out.strip() == want
    assert "Traceback" not in err


# Each command's required arguments, and the value of every option after
# parsing them alone.
CLI_DEFAULTS = {
    "eval": (["--fn", "exp", "--kappa", "0.5", "--x", "1"],
             {"fn": "exp", "kappa": 0.5, "x": 1.0, "y": None}),
    "solve": ([], {"kappa": 0.9, "format": "csv", "output": None, "method": "analytic",
                   "beta": 1.0, "f0": 1.0, "h": 0.01, "x_max": 5.0}),
    "series": (["--target", "exp"],
               {"target": "exp", "order": 8, "kappa": 0.9, "output": None}),
    "compare": ([], {"methods": "euler,ab2,rk4", "kappa": 0.9, "beta": 1.0,
                     "x_max": 5.0, "h": 0.01, "levels": 1, "out_dir": "."}),
    "slope-field": ([], {"kappa": 0.9, "format": "csv", "output": None, "beta": 1.0,
                         "x_min": 0.0, "x_max": 5.0, "f_min": 0.0, "f_max": 1.0,
                         "nx": 21, "nf": 21}),
    "logistic": ([], {"kappa": 0.9, "format": "csv", "output": None, "method": "rk4",
                      "h": 0.01, "x_max": 5.0, "f0": 0.5}),
}


@pytest.mark.parametrize("command", sorted(CLI_DEFAULTS))
def test_command_help_and_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith(f"usage: kappamath {command} ")
    required, want = CLI_DEFAULTS[command]
    for dest in want:
        assert f" --{dest.replace('_', '-')} " in help_text, dest
    # argparse and the plain-grammar parser give the same defaults
    for args in (_build_parser().parse_args([command, *required]),
                 _parse_plain([command, *required])):
        args = vars(args)
        assert args.pop("command") == command and callable(args.pop("handler"))
        assert args == want
    for i in range(0, len(required), 2):  # each required option stays required
        with pytest.raises(SystemExit) as exc:
            main([command, *required[:i], *required[i + 2:]])
        assert exc.value.code == 2


KAPPA_HELP = "deformation parameter, |kappa| < 1"
OUTPUT_HELP = ("output file (default: stdout); relative paths resolve against "
               "$KAPPA_OUT_DIR when set")

# Each command's options in the order of its help: flag, dest, default, type
# name, choices, required and help.
OPTION_SPECS = {
    "eval": [
        ("--fn", "fn", None, None, ["exp", "ln", "sum", "product", "weight", "knum"],
         True, None),
        ("--kappa", "kappa", 0.9, "_finite_float", None, True, KAPPA_HELP),
        ("--x", "x", None, "_finite_float", None, True, None),
        ("--y", "y", None, "_finite_float", None, False, None),
    ],
    "solve": [
        ("--kappa", "kappa", 0.9, "_finite_float", None, False, KAPPA_HELP),
        ("--format", "format", "csv", None, ["csv", "json"], False, None),
        ("--output", "output", None, None, None, False, OUTPUT_HELP),
        ("--method", "method", "analytic", None, ["analytic", "euler", "ab2", "rk4"],
         False, None),
        ("--beta", "beta", 1.0, "_finite_float", None, False, None),
        ("--f0", "f0", 1.0, "_finite_float", None, False, None),
        ("--h", "h", 0.01, "_finite_float", None, False, None),
        ("--x-max", "x_max", 5.0, "_finite_float", None, False, None),
    ],
    "series": [
        ("--target", "target", None, None, ["exp", "ln1p", "decay", "picard"], True, None),
        ("--order", "order", 8, "int", None, False, None),
        ("--kappa", "kappa", 0.9, "_finite_float", None, False, KAPPA_HELP),
        ("--output", "output", None, None, None, False, OUTPUT_HELP),
    ],
    "compare": [
        ("--methods", "methods", "euler,ab2,rk4", None, None, False,
         "comma-separated subset of euler,ab2,rk4"),
        ("--kappa", "kappa", 0.9, "_finite_float", None, False, KAPPA_HELP),
        ("--beta", "beta", 1.0, "_finite_float", None, False, None),
        ("--x-max", "x_max", 5.0, "_finite_float", None, False, None),
        ("--h", "h", 0.01, "_finite_float", None, False,
         "largest step size (ladder start when --levels > 1)"),
        ("--levels", "levels", 1, "int", None, False,
         "halving ladder depth (1 = single step size)"),
        ("--out-dir", "out_dir", ".", None, None, False,
         "directory for the per-report CSVs and summary.json"),
    ],
    "slope-field": [
        ("--kappa", "kappa", 0.9, "_finite_float", None, False, KAPPA_HELP),
        ("--format", "format", "csv", None, ["csv", "json"], False, None),
        ("--output", "output", None, None, None, False, OUTPUT_HELP),
        ("--beta", "beta", 1.0, "_finite_float", None, False, None),
        ("--x-min", "x_min", 0.0, "_finite_float", None, False, None),
        ("--x-max", "x_max", 5.0, "_finite_float", None, False, None),
        ("--f-min", "f_min", 0.0, "_finite_float", None, False, None),
        ("--f-max", "f_max", 1.0, "_finite_float", None, False, None),
        ("--nx", "nx", 21, "int", None, False, None),
        ("--nf", "nf", 21, "int", None, False, None),
    ],
    "logistic": [
        ("--kappa", "kappa", 0.9, "_finite_float", None, False, KAPPA_HELP),
        ("--format", "format", "csv", None, ["csv", "json"], False, None),
        ("--output", "output", None, None, None, False, OUTPUT_HELP),
        ("--method", "method", "rk4", None, ["euler", "ab2", "rk4"], False, None),
        ("--h", "h", 0.01, "_finite_float", None, False, None),
        ("--x-max", "x_max", 5.0, "_finite_float", None, False, None),
        ("--f0", "f0", 0.5, "_finite_float", None, False, None),
    ],
}


def test_option_specs_every_command():
    ap = _build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTION_SPECS)
    for command, want in OPTION_SPECS.items():
        got = [(a.option_strings, a.dest, a.default, getattr(a.type, "__name__", None),
                None if a.choices is None else list(a.choices), a.required, a.help)
               for a in sub.choices[command]._actions
               if not isinstance(a, argparse._HelpAction)]
        assert got == [([flag], *rest) for flag, *rest in want], command


# Each command's line in the top-level help, in the order listed there.
COMMAND_HELP = {
    "eval": "evaluate a deformed function",
    "solve": "solve the decay problem",
    "series": "emit series coefficients as JSON",
    "compare": "numerical-vs-analytic error reports",
    "slope-field": "tangent-slope grid for the decay field",
    "logistic": "logistic closed form vs a numerical method",
}


def test_top_level_help_and_unknown_command_name_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMAND_HELP) + "}" in out
    for name, help in COMMAND_HELP.items():
        assert re.search(rf"^ +{name} +{help}$", out, re.M), name
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    choices = [ln for ln in err.splitlines() if "invalid choice: 'bogus'" in ln]
    assert len(choices) == 1 and all(name in choices[0] for name in COMMAND_HELP)


def test_one_parser_parses_different_commands_in_turn():
    ap = _build_parser()
    for command in ["solve", "slope-field", "solve", "eval", "logistic"]:
        required, want = CLI_DEFAULTS[command]
        args = vars(ap.parse_args([command, *required]))
        assert args.pop("command") == command and callable(args.pop("handler"))
        assert args == want
    # an option of one command is still unknown to another
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(["solve", "--nx", "3"])
    assert exc.value.code == 2


_JUNK_TOKENS = ["", " ", "-", "--", "-h", "--help", "--kap", "--x", "--bogus", "-3.2e-05",
                "-.5E+0", "-1e2", "-1", "1e400", "nan", "-inf", "abc", "a=b", "-x y"]


@st.composite
def _argv(draw):
    """A command and its flags with values of their types and choices, each
    as --flag=value or --flag value, and about one token in ten junk: argv
    now in the plain grammar and now only in argparse's."""
    name, _, _, flags, differs = draw(st.sampled_from(_COMMANDS))
    specs = _specs(flags, differs)
    junk = st.sampled_from(_JUNK_TOKENS) | st.text(max_size=3)

    def pick(good, bad):
        return draw(bad if draw(st.integers(0, 9)) == 0 else good)

    argv = [pick(st.just(name), junk)]
    required = [f for f, spec in specs.items() if spec.get("required")]
    drawn = draw(st.lists(st.sampled_from(list(specs)), max_size=6))
    for flag in draw(st.permutations(required + drawn)):
        flag = pick(st.just(flag), st.sampled_from(sorted(_OPTIONS)) | junk)
        spec = specs.get(flag, _OPTIONS.get(flag, {}))
        if "choices" in spec:
            value = st.sampled_from(sorted(spec["choices"]))
        elif spec.get("type") is int:
            value = st.integers(-5, 30).map(str)
        elif "type" in spec:
            value = st.floats(-2.0, 2.0).map(repr) | st.floats().map(repr)
        else:
            value = st.sampled_from(["out.csv", "csv", "euler,rk4", ".", "-out"])
        tokens = [flag, pick(value, junk)]
        argv += ["=".join(tokens)] if draw(st.booleans()) else tokens
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
@example(argv=["slope-field", "--output=--"])
@example(argv=["solve", "--kappa", "-3.2e-05"])
@example(argv=["solve", "--kap", "0.5"])
@example(argv=["eval", "--fn", "exp", "--kappa=0.5", "--x", "1", "--x=-2"])
@example(argv=["solve", "--output", "-"])
def test_plain_grammar_parses_as_argparse(argv):
    # wherever the plain-grammar parser accepts argv, argparse gives the
    # same namespace; elsewhere argparse alone parses or reports it
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(_build_parser().parse_args(argv))
        except SystemExit:
            want = None
    got = _parse_plain(argv)
    assert got is None or vars(got) == want, argv
    # a value "--" is a usage error for both, on every Python version
    assert want is None or not any(v in ([], "--") for v in want.values()), argv


def test_eval_sum_of_inverses_near_the_float_maximum(capsys):
    # x (+) -x = 0, though both terms of the direct form overflow
    rc, out, err = run(capsys, "eval", "--fn", "sum", "--kappa", "0.5",
                       "--x", "1e308", "--y=-1e308")
    assert rc == 0, err
    assert out.strip() == "0"


def test_float_options_accept_negative_exponent_notation(capsys):
    rc, out, _ = run(capsys, "eval", "--fn", "exp", "--kappa", "-3.2e-05", "--x", "1")
    assert rc == 0
    assert float(out) == kappa_exp(Kappa(-3.2e-05), 1.0)
    rc, out, _ = run(capsys, "eval", "--fn", "knum", "--kappa", "-.5E+0", "--x", "-1e1")
    assert rc == 0
    assert float(out) == to_kappa_number(Kappa(-0.5), -10.0)
    rc, out, _ = run(capsys, "solve", "--kappa", "-1e-3", "--beta", "2", "--f0", "-2.5e-1",
                     "--method", "analytic", "--h", "0.5", "--x-max", "1")
    assert rc == 0
    assert out.split("\n")[1].split(",")[:2] == ["0", "-0.25"]
    # argparse, which parses the abbreviation, takes the same negative number
    rc, abbreviated, _ = run(capsys, "solve", "--kap", "-1e-3", "--beta", "2", "--f0=-2.5e-1",
                             "--method", "analytic", "--h", "0.5", "--x-max", "1")
    assert rc == 0 and abbreviated == out
    # still a usage error: not a number, or a float given to an int option
    with pytest.raises(SystemExit) as exc:
        run(capsys, "eval", "--fn", "exp", "--kappa", "-3.2e-05x", "--x", "1")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "series", "--target", "exp", "--order", "-1e2")
    assert exc.value.code == 2


def test_solve_row_count_and_header(capsys):
    rc, out, _ = run(capsys, "solve", "--kappa", "0.9", "--method", "rk4",
                     "--h", "0.01", "--x-max", "5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,method,kappa,h"
    assert len(lines) == 502  # header + 501 samples


def test_solve_analytic_classical_endpoint(capsys):
    rc, out, _ = run(capsys, "solve", "--kappa", "0", "--method", "analytic",
                     "--h", "0.1", "--x-max", "1")
    assert rc == 0
    last_f = float(out.strip().split("\n")[-1].split(",")[1])
    assert abs(last_f - math.exp(-1)) < 1e-15


def test_solve_analytic_keeps_a_large_f0_past_exp_underflow(capsys):
    # exp(-x) underflows to 0 at x = 800, and f0 exp(-x) does not
    rc, out, _ = run(capsys, "solve", "--kappa", "0", "--method", "analytic",
                     "--f0", "1e300", "--x-max", "800", "--h", "100")
    assert rc == 0
    last_f = float(out.strip().split("\n")[-1].split(",")[1])
    # 1e300 exp(-800), from 60-digit mpmath
    assert last_f == pytest.approx(3.6678745841776874e-48, rel=1e-12, abs=0.0)


def test_solve_rejects_bad_step(capsys):
    rc, _, _ = run(capsys, "solve", "--kappa", "0.9", "--method", "euler", "--h", "-1")
    assert rc == 2


def test_decay_commands_reject_subnormal_beta(capsys, monkeypatch, tmp_path):
    # 1/beta overflows, so the slope would be -0 and no trace would decay
    monkeypatch.setenv("KAPPA_OUT_DIR", str(tmp_path))
    for argv in (["solve", "--method", "rk4", "--h", "1e306"],
                 ["compare", "--h", "1e306"],
                 ["slope-field"]):
        rc, _, err = run(capsys, *argv, "--beta", "5e-309", "--x-max", "1e308")
        assert rc == 2 and "beta too small" in err


def test_solve_json_format(capsys):
    rc, out, _ = run(capsys, "solve", "--kappa", "0.5", "--method", "analytic",
                     "--h", "0.5", "--x-max", "1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "analytic"
    assert len(doc["samples"]) == 3
    assert doc["samples"][0] == {"x": 0.0, "f": 1.0}


# Each table command's CSV header, JSON top-level keys and JSON row keys:
# solve's CSV repeats method, kappa and h on every row, its JSON does not.
TABLE_SHAPES = {
    "solve": (["--h", "0.5", "--x-max", "1"], "x,f,method,kappa,h",
              ["method", "kappa", "h", "samples"], ["x", "f"]),
    "logistic": (["--h", "0.5", "--x-max", "1"], "x,f_analytic,f_method,abs_error",
                 ["kappa", "method", "h", "samples"],
                 ["x", "f_analytic", "f_method", "abs_error"]),
    "slope-field": (["--nx", "2", "--nf", "3"], "x,f,slope",
                    ["kappa", "nodes"], ["x", "f", "slope"]),
}


@pytest.mark.parametrize("command", sorted(TABLE_SHAPES))
def test_table_shapes(capsys, command):
    argv, header, top_keys, row_keys = TABLE_SHAPES[command]
    rc, csv_out, _ = run(capsys, command, *argv)
    assert rc == 0
    lines = csv_out.splitlines()
    assert lines[0] == header
    assert all(len(ln.split(",")) == header.count(",") + 1 for ln in lines[1:])
    rc, json_out, _ = run(capsys, command, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(json_out)
    assert list(doc) == top_keys
    rows = doc[top_keys[-1]]
    assert len(rows) == len(lines) - 1
    assert all(list(row) == row_keys for row in rows)
    if command == "solve":
        method, kappa, h = lines[1].split(",")[2:]
        assert (doc["method"], doc["kappa"], doc["h"]) == (method, float(kappa), float(h))


def _reference_table(fmt, columns, rows, meta):
    """(text, None) or (None, error message) for a table written cell by cell:
    CSV as the format(v, ".17g") join of each cell, a str as it is; JSON as
    json.dumps(indent=2) of the meta fields and the rows under "samples"."""
    values = [*meta.values(), *(v for row in rows for v in row)]
    floats = [v for v in values if not isinstance(v, str)]
    if fmt == "csv":
        tail = [meta[c] for c in columns[len(columns) - len(meta):]]
        lines = [",".join(columns)] + [
            ",".join(v if isinstance(v, str) else format(v, ".17g") for v in [*row, *tail])
            for row in rows]
        return "\n".join(lines) + "\n", None
    bad = [v for v in floats if not math.isfinite(v)]
    if bad:
        return None, f"non-finite value {bad[0]!r} in JSON output"
    names = columns[:len(columns) - len(meta)]
    doc = {**meta, "samples": [dict(zip(names, row)) for row in rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n", None


TABLE_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf])
# names that are not parameters of the writer, nor its rows' key
TABLE_NAMES = st.text(min_size=1, max_size=3).filter(
    lambda n: n not in ("args", "columns", "rows", "key", "samples"))


@st.composite
def _tables(draw):
    """Columns, rows and meta fields: the rows hold the values of the leading
    columns, and each trailing column is a meta field, a str or a float."""
    columns = draw(st.lists(TABLE_NAMES, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, len(columns)))
    meta = {c: draw(st.text(max_size=3) | TABLE_FLOATS) for c in columns[n:]}
    rows = draw(st.lists(st.tuples(*[TABLE_FLOATS] * n), max_size=4))
    return columns, rows, meta


@settings(max_examples=400, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
@example(table=(["x%", "f", "method", "h"], [(-0.0, 5e-324), (1.7976931348623157e308, 0.1)],
                {"method": "rk4%s", "h": 0.01}), fmt="csv")
@example(table=(["x%", "f", "method", "h"], [(-0.0, 5e-324), (1.7976931348623157e308, 0.1)],
                {"method": "rk4%s", "h": 0.01}), fmt="json")
@example(table=(["x%", "f"], [(1.0, 2.0), (math.inf, math.nan)], {}), fmt="json")
@example(table=(["0", "NaN"], [], {"NaN": math.inf}), fmt="json")
def test_table_writer_matches_reference_rendering(table, fmt):
    columns, rows, meta = table
    want, error = _reference_table(fmt, columns, rows, meta)
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir) / "table"
        args = argparse.Namespace(format=fmt, output=str(out))
        if error is None:
            _write_table(args, columns, iter(rows), **meta)
            assert out.read_bytes().decode("utf-8") == want
        else:
            with pytest.raises(ConvergenceError) as exc:
                _write_table(args, columns, iter(rows), **meta)
            assert str(exc.value) == error
            assert list(Path(out_dir).iterdir()) == []


@settings(max_examples=10, deadline=None)
@given(kappa=st.floats(-0.95, 0.95), levels=st.integers(1, 3))
def test_compare_csvs_match_reference_rendering(kappa, levels):
    with tempfile.TemporaryDirectory() as out_dir:
        assert main(["compare", f"--kappa={kappa!r}", "--h=0.5", f"--levels={levels}",
                     "--out-dir", out_dir]) == 0
        p = DecayProblem(Kappa(kappa))
        for method in SOLVERS:
            for i, r in enumerate(error_ladder(p, method, 0.5, levels)):
                name = f"errors_{method}_{i}.csv" if levels > 1 else f"errors_{method}.csv"
                rows = [(method, r.h, x, e) for x, e in zip(r.xs, r.abs_errors)]
                want, _ = _reference_table("csv", ["method", "h", "x", "abs_error"], rows, {})
                assert (Path(out_dir) / name).read_text() == want, name


def test_series_decay_coefficients(capsys):
    rc, out, _ = run(capsys, "series", "--target", "decay", "--order", "4",
                     "--kappa", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["variable"] == "x"
    assert doc["coefficients"] == pytest.approx([1.0, -1.0, 0.5, -0.125, 0.0], abs=1e-15)


def test_series_picard_and_exp(capsys):
    rc, out, _ = run(capsys, "series", "--target", "picard", "--order", "0",
                     "--kappa", "0.9")
    assert json.loads(out)["coefficients"] == [1.0]
    rc, out, _ = run(capsys, "series", "--target", "exp", "--order", "5",
                     "--kappa", "0.5")
    assert json.loads(out)["coefficients"][5] == pytest.approx(-0.0078125, abs=1e-15)


def test_series_rejects_bad_order(capsys):
    rc, _, _ = run(capsys, "series", "--target", "exp", "--order", "99", "--kappa", "0.5")
    assert rc == 2


def test_compare_summary_and_orders(capsys, tmp_path):
    rc, _, _ = run(capsys, "compare", "--methods", "euler,ab2,rk4", "--h", "0.01",
                   "--kappa", "0.9", "--out-dir", str(tmp_path))
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    maxes = {r["method"]: r["max_error"] for r in summary["reports"]}
    assert maxes["euler"] > maxes["ab2"] > maxes["rk4"]
    assert (tmp_path / "errors_euler.csv").read_text().startswith("method,h,x,abs_error\n")


def test_compare_ladder_fits(capsys, tmp_path):
    rc, _, _ = run(capsys, "compare", "--methods", "rk4", "--h", "0.1",
                   "--levels", "4", "--kappa", "0.9", "--out-dir", str(tmp_path))
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    orders = summary["fitted_orders"]["rk4"]
    assert len(orders) == 3
    assert all(abs(o - 4.0) < 0.25 for o in orders)


def test_compare_ladder_stops_at_floor(capsys, tmp_path):
    # at kappa = 0 the rk4 error reaches the round-off floor at level 7 of 8
    rc, _, _ = run(capsys, "compare", "--methods", "rk4", "--h", "0.1",
                   "--levels", "8", "--kappa", "0", "--out-dir", str(tmp_path))
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["hit_floor"] == {"rk4": True}
    orders = summary["fitted_orders"]["rk4"]
    assert len(orders) == 6
    assert all(abs(o - 4.0) < 0.25 for o in orders)
    for levels in ("9", "0"):
        rc, _, err = run(capsys, "compare", "--methods", "rk4", "--levels", levels,
                         "--out-dir", str(tmp_path / levels))
        assert rc == 2 and "levels" in err
        assert not (tmp_path / levels).exists()


def test_compare_empty_methods(capsys, tmp_path):
    rc, _, _ = run(capsys, "compare", "--methods", "", "--out-dir", str(tmp_path))
    assert rc == 2


def test_slope_field_grid(capsys):
    rc, out, _ = run(capsys, "slope-field", "--kappa", "0.9", "--x-min", "0",
                     "--x-max", "5", "--f-min", "0", "--f-max", "1",
                     "--nx", "21", "--nf", "21")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,slope"
    assert len(lines) == 442  # header + 21*21 nodes


def test_logistic_output(capsys):
    rc, out, _ = run(capsys, "logistic", "--kappa", "0.9", "--method", "rk4",
                     "--h", "0.5", "--x-max", "5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f_analytic,f_method,abs_error"
    mid = [ln for ln in lines[1:] if float(ln.split(",")[0]) == 0.0]
    assert len(mid) == 1
    assert float(mid[0].split(",")[1]) == 0.5


def test_logistic_bad_step(capsys):
    rc, _, _ = run(capsys, "logistic", "--kappa", "0.9", "--h", "100")
    assert rc == 2


def test_output_files_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        rc, _, _ = run(capsys, "solve", "--kappa", "0.9", "--method", "euler",
                       "--h", "0.1", "--x-max", "2", "--output", str(target))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_kappa_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KAPPA_OUT_DIR", str(tmp_path))
    rc, _, _ = run(capsys, "series", "--target", "decay", "--order", "3",
                   "--kappa", "0.5", "--output", "coeffs.json")
    assert rc == 0
    doc = json.loads((tmp_path / "coeffs.json").read_text())
    assert doc["order"] == 3


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    # an output path under a regular file, an output path that is a directory,
    # and an --out-dir under a regular file: exit 2, and no temp file is left
    blocker = tmp_path / "file"
    blocker.write_text("x")
    (tmp_path / "dir").mkdir()
    for argv in (["solve", "--h", "0.5", "--output", str(blocker / "x.csv")],
                 ["solve", "--h", "0.5", "--output", str(tmp_path / "dir")],
                 ["compare", "--h", "0.5", "--out-dir", str(blocker / "out")]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("error: "), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_slope_field_where_beta_f_overflows(capsys):
    # beta * f is inf where the weight is 0; the slope -f/(k x) is finite
    rc, out, _ = run(capsys, "slope-field", "--beta", "1e308", "--x-max", "1e308",
                     "--f-max", "1e308")
    assert rc == 0 and "nan" not in out


def test_slope_field_range_wider_than_float_range(capsys):
    # (hi - lo)/(n - 1) is inf, and lo + 0 * inf would be nan
    for lo_opt, hi_opt, n_opt in (("--x-min=-1e308", "--x-max=1e308", "--nx"),
                                  ("--f-min=-1e308", "--f-max=1e308", "--nf")):
        rc, out, _ = run(capsys, "slope-field", "--kappa", "0.5", lo_opt, hi_opt,
                         "--nx", "3", "--nf", "3", n_opt, "3")
        assert rc == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        col = 0 if lo_opt.startswith("--x") else 1
        assert sorted({float(r[col]) for r in rows}) == [-1e308, 0.0, 1e308]
        assert all(math.isfinite(float(v)) for r in rows for v in r)
    # 3 * ((max - 0)/3) rounds past the float range: the last node is max
    rc, out, _ = run(capsys, "slope-field", "--kappa", "0.5",
                     "--x-max", "1.7976931348623157e308", "--nx", "4", "--nf", "1")
    assert rc == 0
    xs = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert xs[0] == 0.0 and xs[-1] == 1.7976931348623157e308 and len(xs) == 4


def test_linspace_nodes_where_the_range_is_finite():
    for lo, hi, n in ((0.0, 5.0, 21), (-1.0, 1.0, 3), (0.1, 0.7, 4), (2.0, -3.0, 7),
                      (-1e308, 7e307, 5)):
        step = (hi - lo) / (n - 1)
        assert _linspace(lo, hi, n) == [lo + i * step for i in range(n)]


def test_logistic_span_past_half_the_float_range(capsys):
    # 2 * x_max overflows; the 21 steps of h = 1e307 do not.  At kappa 0.99
    # and f0 = 1 - 1e-6 the start exact(-x_max), about 3.7e-306, is normal
    for method in SOLVERS:
        rc, out, err = run(capsys, "logistic", "--kappa", "0.99", "--f0", "0.999999",
                           "--x-max", "1.05e308", "--h", "1e307", "--method", method)
        assert rc == 0, err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 22
        xs = [float(r.split(",")[0]) for r in rows]
        assert xs[0] == -1.05e308 and xs[-1] == pytest.approx(1.05e308, rel=1e-15)


@pytest.mark.parametrize("args", [
    # the start underflows to 0.0; it is 1e-323, 6.2e-320 and 1.37e-315 at
    # x_max = 744, 735 and 725, and a subnormal f0 makes every start subnormal
    ("--kappa", "0.5", "--f0", "0.5", "--x-max", "1e308", "--h", "1e307"),
    ("--kappa", "0", "--f0", "0.5", "--x-max", "744", "--h", "0.25"),
    ("--kappa", "0", "--f0", "0.5", "--x-max", "735", "--h", "0.25"),
    ("--kappa", "0", "--f0", "0.5", "--x-max", "725", "--h", "0.25"),
    ("--kappa", "0", "--f0", "5e-324", "--x-max", "1000", "--h", "10"),
])
def test_logistic_start_below_the_normal_range_exits_3(capsys, args):
    for method in SOLVERS:
        rc, out, err = run(capsys, "logistic", *args, "--method", method)
        assert (rc, out) == (3, ""), err
        assert "logistic start" in err and "below the normal range" in err


def test_solve_grid_ends_before_an_overflowing_point(capsys):
    # the third grid point, 2 h, rounds past the float maximum
    rc, out, err = run(capsys, "solve", "--kappa", "0.5", "--method", "euler",
                       "--x-max", "1.7976931348623157e308", "--h", "8.988465674401464e+307")
    assert rc == 0, err
    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "8.9884656744014642e+307"]
    assert "inf" not in out


def test_logistic_subnormal_f0(capsys):
    # the closed form keeps a subnormal f0; the command refuses the trace,
    # whose start exact(-1000) underflows
    rc, out, _ = run(capsys, "logistic", "--kappa", "0", "--f0", "5e-324",
                     "--x-max", "1000", "--h", "10")
    assert (rc, out) == (3, "")
    trace = analytic_trace(LogisticProblem(Kappa(0.0), f0=5e-324, x_max=1000.0), 10.0)
    f = dict(zip(trace.xs, trace.fs))
    assert f[700.0] == pytest.approx(5e-324 * math.exp(700.0), rel=1e-12)
    assert 5e-20 < f[700.0] < 5.1e-20
    assert f[1000.0] == 1.0


def test_float_options_reject_non_finite(capsys):
    for argv in (["eval", "--fn", "knum", "--kappa", "0.5", "--x", "nan"],
                 ["eval", "--fn", "sum", "--kappa", "0.5", "--x", "nan", "--y", "1"],
                 ["eval", "--fn", "exp", "--kappa", "0.5", "--x", "1e400"],
                 ["solve", "--h", "inf"]):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nan_output_is_numerical_failure(capsys, tmp_path, fmt):
    out = tmp_path / f"trace.{fmt}"
    rc, _, err = run(capsys, "solve", "--method", "rk4", "--beta", "1e308", "--h", "0.5",
                     "--x-max", "2", "--format", fmt, "--output", str(out))
    assert rc == 3 and "numerical failure" in err
    assert list(tmp_path.iterdir()) == []


def test_compare_names_non_finite_error(capsys, tmp_path):
    # rk4's first step overflows with both signs: a numerical failure that
    # says so, not a FloorError from the 0.0 error at x = 0
    rc, _, err = run(capsys, "compare", "--beta", "1e308", "--methods", "rk4", "--h", "0.5",
                     "--x-max", "2", "--levels", "2", "--out-dir", str(tmp_path))
    assert rc == 3
    assert "rk4: the step to x = 0.5 overflows with both signs" in err and "floor" not in err
    assert list(tmp_path.iterdir()) == []


def test_solve_analytic_past_overflow(capsys):
    # beta x overflows to inf at x = 2, where the closed form is 0
    rc, out, err = run(capsys, "solve", "--method", "analytic", "--beta", "1e308",
                       "--h", "0.5", "--x-max", "2")
    assert rc == 0, err
    fs = [ln.split(",")[1] for ln in out.strip().split("\n")[1:]]
    assert fs == ["1", "0", "0", "0", "0"]


def test_grid_sizes_bounded(capsys):
    # 1/h = MAX_POINTS steps and nx * nf = MAX_POINTS + 1 nodes are both refused
    rc, out, _ = run(capsys, "solve", "--h", repr(1.0 / MAX_POINTS), "--x-max", "1")
    assert rc == 2 and out == ""
    assert (MAX_POINTS + 1) % 101 == 0
    rc, out, _ = run(capsys, "slope-field", "--nx", "101",
                     "--nf", str((MAX_POINTS + 1) // 101))
    assert rc == 2 and out == ""
    with pytest.raises(DomainError):
        _linspace(0.0, 1.0, MAX_POINTS + 1)


EVAL_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
# plus subnormals, and a share of moderate values so that some runs get past
# the argument checks
CLI_FLOATS = (EVAL_FLOATS | st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e-300])
              | st.floats(-2.0, 2.0))


def _assert_exit_contract(argv, out_dir=None):
    """Exit code 0, 2 or 3, no traceback, and no nan printed or written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3)
    assert "nan" not in out.getvalue().lower()
    assert "Traceback" not in err.getvalue()
    if out_dir is not None:
        for f in Path(out_dir).iterdir():
            assert "nan" not in f.read_text().lower(), f.name


@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(["exp", "ln", "sum", "product", "weight", "knum"]),
       kappa=EVAL_FLOATS, x=EVAL_FLOATS, y=st.none() | EVAL_FLOATS)
@example(fn="sum", kappa=0.5, x=1e308, y=-1e308)
@example(fn="ln", kappa=0.99, x=5e-324, y=None)
def test_eval_exit_codes_and_no_nan(fn, kappa, x, y):
    argv = ["eval", "--fn", fn, f"--kappa={kappa!r}", f"--x={x!r}"]
    if y is not None:
        argv.append(f"--y={y!r}")
    _assert_exit_contract(argv)


@st.composite
def _command_argv(draw, command):
    """One invocation of command with arbitrary floats for --kappa, --beta,
    --f0 and --x-max, on a grid of at most a few hundred points."""
    argv = [command, f"--kappa={draw(CLI_FLOATS)!r}"]
    if command == "series":
        target = draw(st.sampled_from(["exp", "ln1p", "decay", "picard"]))
        return argv + ["--target", target, "--order", str(draw(st.integers(-1, 24)))]
    x_max = draw(CLI_FLOATS)
    argv.append(f"--x-max={x_max!r}")
    if command != "logistic":
        argv.append(f"--beta={draw(CLI_FLOATS)!r}")
    if command in ("solve", "logistic"):
        argv.append(f"--f0={draw(CLI_FLOATS)!r}")
    if command == "slope-field":
        argv += ["--nx", str(draw(st.integers(1, 10))), "--nf", str(draw(st.integers(1, 10)))]
    else:
        n = draw(st.integers(1, 100))
        h = x_max / n if math.isfinite(x_max) and x_max > 0.0 else 0.5
        argv.append(f"--h={h!r}")
    if command == "compare":
        methods = draw(st.lists(st.sampled_from(list(SOLVERS)), min_size=1, unique=True))
        return argv + ["--methods", ",".join(methods),
                       "--levels", str(draw(st.integers(1, 3)))]
    if command != "slope-field":
        choices = ["analytic", *SOLVERS] if command == "solve" else list(SOLVERS)
        argv += ["--method", draw(st.sampled_from(choices))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


# Inputs where a trace or an exact value overflows to inf or nan; random
# draws reach them only now and then, so every run checks them.
CLI_EDGES = {
    "solve": [["--method", m, "--beta=1e300", "--h=0.5", "--x-max=2", "--format", f]
              for m in ("analytic", "rk4") for f in ("csv", "json")],
    "series": [],
    "compare": [["--methods", "euler,rk4", "--beta=1e300", "--h=0.5", "--x-max=2",
                 "--levels=2"],
                ["--beta=1e308", "--h=0.5", "--x-max=2"],
                # the euler error grows from a number to inf between levels
                ["--kappa=0.0", "--x-max=6.80564733841877e+38",
                 "--beta=6.80564733841877e+38", "--h=6.80564733841877e+38",
                 "--methods", "euler", "--levels", "3"]],
    "slope-field": [["--beta=1e308", "--x-max=1e308", "--f-max=1e308"]],
    "logistic": [["--kappa=0", "--f0=5e-324", "--x-max=1000", "--h=10", "--format", f]
                 for f in ("csv", "json")],
}


@pytest.mark.parametrize("command", sorted(CLI_EDGES))
def test_cli_exit_codes_and_no_nan(command):
    def check(argv):
        with tempfile.TemporaryDirectory() as out_dir:
            if command == "compare":
                argv = argv + ["--out-dir", out_dir]
            _assert_exit_contract(argv, out_dir)

    for argv in CLI_EDGES[command]:
        check([command, *argv])
    settings(max_examples=150, deadline=None)(given(_command_argv(command))(check))()


def _run_python(code, *args, cwd=None):
    """Run `python -c code args` in a fresh interpreter that imports
    kappamath from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_runtime_imports_without_numpy(tmp_path):
    # the package uses none of these modules, numpy included: the package
    # and the CLI, file output included, run with them blocked (an import of
    # a module set to None in sys.modules raises); a CSV or eval command in
    # the plain grammar needs neither argparse, with its gettext and locale,
    # nor json, nor re, and loads no kappamath module that it does not run
    blocked = ["numpy", "dataclasses", "inspect", "typing", "tempfile", "pathlib",
               "fractions", "decimal", "numbers", "argparse", "gettext", "locale", "json",
               "re", "__future__"]
    out = tmp_path / "sub" / "trace.csv"
    code = ("import sys\n"
            f"for name in {blocked!r}: sys.modules[name] = None\n"
            "import kappamath, kappamath.cli\n"
            "rc = kappamath.cli.main(['eval', '--fn', 'exp', '--kappa', '0.5', '--x', '1'])\n"
            "rc = rc or kappamath.cli.main(['solve', '--h', '0.5', '--output', sys.argv[1]])\n"
            "print(*sorted(m for m in sys.modules if m.startswith('kappamath')))\n"
            "sys.exit(rc)")
    proc = _run_python(code, str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "2.6180339887498949",
        "kappamath kappamath.cli kappamath.core kappamath.errors kappamath.ode"]
    assert out.read_text().startswith("x,f,method,kappa,h\n0,1,analytic,")
    assert [p.name for p in out.parent.iterdir()] == ["trace.csv"]


@pytest.mark.parametrize("argv, loads", [
    ("solve --h 0.5 --format json", []),
    ("logistic --h 0.5", []),
    ("slope-field --nx 2 --nf 2", []),
    ("series --target exp --order 4", ["kappamath.series"]),
    # the harness imports series only in the two functions compare never calls
    ("compare --h 0.5 --x-max 1 --out-dir reports", ["kappamath.harness"]),
])
def test_each_command_imports_only_the_modules_it_runs(argv, loads, tmp_path):
    # importing the CLI loads the package, core, errors and ode; a command
    # adds only the kappamath modules it runs, when it runs
    code = ("import sys\n"
            "import kappamath.cli\n"
            "before = set(sys.modules)\n"
            "rc = kappamath.cli.main(sys.argv[1:])\n"
            "print(*sorted(m for m in set(sys.modules) - before if m.startswith('kappamath')),"
            " file=sys.stderr)\n"
            "sys.exit(rc)")
    proc = _run_python(code, *argv.split(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == loads


def test_package_namespace_is_the_modules_and_their_public_names():
    # the package binds its names on first use; star import and dir() give
    # the five modules and the 55 names of their __all__
    modules = ["core", "errors", "harness", "ode", "series"]
    public = {*modules, *(n for m in modules
                          for n in importlib.import_module(f"kappamath.{m}").__all__)}
    assert len(public) == 60
    star = {}
    exec("from kappamath import *", star)
    assert star.keys() - {"__builtins__"} == public
    assert dir(kappamath) == sorted(public)
    with pytest.raises(AttributeError, match="^module 'kappamath' has no attribute 'nope'$"):
        kappamath.nope
    # in a fresh interpreter a module's name imports that module and what it
    # imports, nothing else
    proc = _run_python("import sys\n"
                       "from kappamath import ode\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('kappamath')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["kappamath", "kappamath.core", "kappamath.errors",
                                   "kappamath.ode"]
