import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappamath import DomainError, Kappa, kappa_exp, to_kappa_number
from kappamath.cli import _linspace, main
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


@pytest.mark.parametrize("argv", [
    ("--fn", "exp", "--kappa", "0.99", "--x", "1e308"),
    ("--fn", "sum", "--kappa", "0", "--x", "1e308", "--y", "1e308")],
    ids=["exp", "sum"])
def test_eval_correctly_rounded_overflow_prints_inf(capsys, argv):
    # exp_k(1e308) and 1e308 (+)_0 1e308 exceed the float range: inf is their
    # correctly rounded value, as for the kappa-product above
    rc, out, err = run(capsys, "eval", *argv)
    assert rc == 0
    assert out.strip() == "inf"
    assert "Traceback" not in err


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
    # 2 * x_max overflows; the 20 steps of h = 1e307 do not
    for method in SOLVERS:
        rc, out, err = run(capsys, "logistic", "--kappa", "0.5", "--f0", "0.5",
                           "--x-max", "1e308", "--h", "1e307", "--method", method)
        assert rc == 0, err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 21
        xs = [float(r.split(",")[0]) for r in rows]
        assert xs[0] == -1e308 and xs[10] == 0.0 and xs[-1] == 1e308


def test_solve_grid_ends_before_an_overflowing_point(capsys):
    # the third grid point, 2 h, rounds past the float maximum
    rc, out, err = run(capsys, "solve", "--kappa", "0.5", "--method", "euler",
                       "--x-max", "1.7976931348623157e308", "--h", "8.988465674401464e+307")
    assert rc == 0, err
    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "8.9884656744014642e+307"]
    assert "inf" not in out


def test_logistic_subnormal_f0(capsys):
    rc, out, _ = run(capsys, "logistic", "--kappa", "0", "--f0", "5e-324",
                     "--x-max", "1000", "--h", "10")
    assert rc == 0
    f = {float(x): float(fa) for x, fa, _, _ in
         (line.split(",") for line in out.strip().split("\n")[1:])}
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
    # rk4 blows up to nan after its first step: a numerical failure that says
    # so, not a FloorError from the 0.0 error at x = 0
    rc, _, err = run(capsys, "compare", "--beta", "1e308", "--methods", "rk4", "--h", "0.5",
                     "--x-max", "2", "--levels", "2", "--out-dir", str(tmp_path))
    assert rc == 3
    assert "non-finite value nan" in err and "floor" not in err
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


def test_runtime_imports_without_numpy(tmp_path):
    # the package uses none of these modules, numpy included: the package
    # and the CLI, file output included, run with them blocked (an import of
    # a module set to None in sys.modules raises)
    blocked = ["numpy", "dataclasses", "inspect", "typing", "tempfile", "pathlib",
               "fractions", "decimal", "numbers"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = tmp_path / "sub" / "trace.csv"
    code = ("import sys\n"
            f"for name in {blocked!r}: sys.modules[name] = None\n"
            "import kappamath, kappamath.cli\n"
            "rc = kappamath.cli.main(['eval', '--fn', 'exp', '--kappa', '0.5', '--x', '1'])\n"
            "sys.exit(rc or kappamath.cli.main(['solve', '--h', '0.5', '--output', sys.argv[1]]))")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2.6180339887498949"
    assert out.read_text().startswith("x,f,method,kappa,h\n0,1,analytic,")
    assert [p.name for p in out.parent.iterdir()] == ["trace.csv"]
