"""The benchmark's workloads: seeded inputs, the task each one times, and
an independent check of every task's output.

Every task in a workload runs the same operations at the same sizes; the
seed draws only values (kappa, beta, f0, x).  A workload that mixed cheap
and costly kinds of task would put its p50 or p90 on the boundary between
kinds, where it jumps from run to run.  The `cli` workload is the one
exception the command rotation forces; see README.md for how its
percentiles are kept off a boundary.

A task calls kappamath only through `ctx.call(layer, fn, *args)`, so that
the traced run can record a span around each call into a layer.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from kappamath import (
    DecayProblem,
    Kappa,
    LogisticProblem,
    closed_form_decay,
    convergence_order,
    decay_series_solution,
    error_table,
    exp_kappa_taylor,
    kappa_exp,
    picard_vs_series,
    quadrature_decay,
    rk4_solve,
    substitution_decay,
)

BENCH_DIR = Path(__file__).resolve().parent

# Value ranges the seed draws from.
RANGES = {
    "kappa": (-0.95, 0.95),
    "beta": (0.5, 2.0),
    "f0": (0.2, 0.8),
    "x": (0.0, 5.0),
}

# Fixed sizes; the seed never changes these.
POOL = 512  # distinct seeded inputs per run, cycled in order
X_MAX = 5.0
LADDER_H0 = 0.1
LADDER_LEVELS = 5
# method -> (nominal order, tolerance on every fitted order); acceptance criterion 6
LADDER_ORDERS = {"euler": (1.0, 0.2), "ab2": (2.0, 0.2), "rk4": (4.0, 0.25)}
ORACLE_XS = 6
ORACLE_ROUTE_RTOL = 1e-10  # acceptance criterion 5
ORACLE_SERIES_ORDER = 48
ORACLE_SERIES_TOL = 1e-12  # acceptance criterion 3
ORACLE_PICARD_N = 16
ORACLE_PICARD_TOL = 1e-12  # acceptance criterion 4
CLI_H = 0.01
CLI_SERIES_ORDER = 32
CLI_FIELD_N = 21
CLI_COMPARE_H = 0.1
CLI_COMPARE_LEVELS = 3
# Seven slots over six commands ("eval" twice): with an odd slot count the
# p50 and p90 fall inside one command's times instead of between two.
CLI_ROTATION = ("eval", "solve", "series", "eval", "logistic", "slope-field",
                "compare")
CLI_TIMEOUT_S = 60.0

SIZES = {
    "pool": POOL, "x_max": X_MAX,
    "ladder": {"h0": LADDER_H0, "levels": LADDER_LEVELS,
               "methods": sorted(LADDER_ORDERS)},
    "oracle": {"xs": ORACLE_XS, "series_order": ORACLE_SERIES_ORDER,
               "picard_n": ORACLE_PICARD_N},
    "cli": {"rotation": list(CLI_ROTATION), "h": CLI_H,
            "series_order": CLI_SERIES_ORDER, "field_n": CLI_FIELD_N,
            "compare_h": CLI_COMPARE_H, "compare_levels": CLI_COMPARE_LEVELS},
}


def plain_call(layer: str, fn: Callable, *args, **kwargs):
    """Call into kappamath with tracing off."""
    return fn(*args, **kwargs)


def grid_steps(span: float, h: float) -> int:
    """Steps a fixed-step solver takes over span with step h."""
    return int(math.floor(span / h + 1e-9))


def _draw(rng: random.Random, name: str) -> float:
    lo, hi = RANGES[name]
    return rng.uniform(lo, hi)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    task: Callable  # (inp, ctx) -> result
    check: Callable  # (inp, result) -> error message, or None when correct
    work: Callable  # (inp, result) -> counts of the work the task did
    in_child: bool = False  # the task times itself in a child interpreter


# --- decay_ladder and logistic_ladder -------------------------------------

def _decay_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [(_draw(rng, "kappa"), _draw(rng, "beta")) for _ in range(POOL)]


def _logistic_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [(_draw(rng, "kappa"), _draw(rng, "f0")) for _ in range(POOL)]


def _ladders(p, ctx) -> list:
    return [ctx.call("harness", convergence_order, p, m, LADDER_H0, LADDER_LEVELS)
            for m in sorted(LADDER_ORDERS)]


def _decay_task(inp, ctx):
    kv, beta = inp
    k = ctx.call("core", Kappa, kv)
    p = ctx.call("ode", DecayProblem, k, beta=beta, x_max=X_MAX)
    return _ladders(p, ctx)


def _logistic_task(inp, ctx):
    kv, f0 = inp
    k = ctx.call("core", Kappa, kv)
    p = ctx.call("ode", LogisticProblem, k, f0=f0, x_max=X_MAX)
    return _ladders(p, ctx)


def _ladder_check(inp, reports) -> str | None:
    # Independent route: the orders the methods have in theory.
    for r in reports:
        nominal, tol = LADDER_ORDERS[r.method]
        if not r.fitted_orders or any(abs(o - nominal) > tol for o in r.fitted_orders):
            return f"{r.method} fitted orders {r.fitted_orders} not within {tol} of {nominal}"
    return None


def _ladder_work(span: float) -> Callable:
    def work(inp, reports) -> dict:
        return {
            "steps": sum(grid_steps(span, h) for r in reports for h in r.step_sizes),
            "levels": sum(len(r.step_sizes) for r in reports),
            "ladders": len(reports),
            "floor_hits": sum(r.hit_floor for r in reports),
        }
    return work


# --- oracle ---------------------------------------------------------------

def _oracle_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [(_draw(rng, "kappa"), _draw(rng, "beta"),
             tuple(_draw(rng, "x") for _ in range(ORACLE_XS)))
            for _ in range(POOL)]


def _oracle_task(inp, ctx):
    kv, beta, xs = inp
    k = ctx.call("core", Kappa, kv)
    p = ctx.call("ode", DecayProblem, k, beta=beta, x_max=X_MAX)
    routes = [(ctx.call("ode", closed_form_decay, p, x),
               ctx.call("ode", quadrature_decay, p, x),
               ctx.call("ode", substitution_decay, p, x)) for x in xs]
    taylor = ctx.call("series", exp_kappa_taylor, k, ORACLE_SERIES_ORDER)
    decay = ctx.call("series", decay_series_solution, k, ORACLE_SERIES_ORDER)
    picard = ctx.call("harness", picard_vs_series, k, ORACLE_PICARD_N, xs)
    return routes, taylor, decay, picard


def _oracle_check(inp, result) -> str | None:
    routes, taylor, decay, picard = result
    for x, values in zip(inp[2], routes):
        scale = max(abs(v) for v in values)
        spread = max(values) - min(values)
        if not spread <= ORACLE_ROUTE_RTOL * scale:
            return f"analytic routes disagree at x={x!r}: {values}"
    # exp_k(-x) has the Taylor coefficients of exp_k(x) with alternating sign.
    diff = max(abs(d - (-1) ** j * t) for j, (t, d) in
               enumerate(zip(taylor.coefficients, decay.coefficients)))
    if not (len(taylor.coefficients) == len(decay.coefficients)
            and diff <= ORACLE_SERIES_TOL):
        return f"Taylor and decay series differ by {diff!r}"
    if not picard.max_coefficient_diff <= ORACLE_PICARD_TOL:
        return f"Picard iterate differs from the series by {picard.max_coefficient_diff!r}"
    return None


def _no_solver_work(inp, result) -> dict:
    return {"steps": 0, "levels": 0, "ladders": 0, "floor_hits": 0}


# --- cli --------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    out_dir: Path
    spawn_s: float  # raw wall time of the child, interpreter start included
    child: dict  # timings the child took of itself

    @property
    def task_s(self) -> float:
        return self.child["import_s"] + self.child["cmd_s"]


def _cli_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [(CLI_ROTATION[i % len(CLI_ROTATION)],
             {name: _draw(rng, name) for name in ("kappa", "beta", "f0", "x")})
            for i in range(POOL)]


def _cli_argv(kind: str, v: dict) -> list[str]:
    # Values go in --name=value form: argparse would take a separate token
    # such as "-3.2e-05" for an option, not a negative number.
    k, beta, h = f"--kappa={v['kappa']!r}", f"--beta={v['beta']!r}", f"--h={CLI_H!r}"
    x_max = f"--x-max={X_MAX!r}"
    return {
        "eval": ["eval", "--fn", "exp", k, f"--x={v['x']!r}"],
        "solve": ["solve", k, beta, "--method", "rk4", h, x_max, "--output", "solve.csv"],
        "series": ["series", "--target", "decay", f"--order={CLI_SERIES_ORDER}", k,
                   "--output", "series.json"],
        "logistic": ["logistic", k, f"--f0={v['f0']!r}", "--method", "rk4", h, x_max,
                     "--output", "logistic.csv"],
        "slope-field": ["slope-field", k, beta, f"--nx={CLI_FIELD_N}",
                        f"--nf={CLI_FIELD_N}", "--format", "json", "--output", "field.json"],
        "compare": ["compare", "--methods", ",".join(sorted(LADDER_ORDERS)), k, beta,
                    f"--h={CLI_COMPARE_H!r}", f"--levels={CLI_COMPARE_LEVELS}",
                    "--out-dir", "."],
    }[kind]


def _cli_task(inp, ctx) -> CliResult:
    kind, values = inp
    argv = _cli_argv(kind, values)
    out_dir = ctx.tmp / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    result_path = ctx.tmp / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(result_path),
           "1" if ctx.trace else "0", *argv]
    proc, spawn_s = ctx.call("cli", _spawn, cmd, out_dir, ctx.env)
    if not result_path.is_file():
        raise RuntimeError(f"child wrote no timings; exit {proc.returncode}, "
                           f"stderr {proc.stderr.strip()[-300:]!r}")
    child = json.loads(result_path.read_text())
    return CliResult(proc.returncode, proc.stdout, proc.stderr,
                     out_dir, spawn_s, child)


def _spawn(cmd, cwd, env):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc, time.perf_counter() - t0


def _read_csv_column(path: Path, column: str) -> list[float]:
    with path.open(newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _same(got, want) -> bool:
    return len(got) == len(want) and all(g == w for g, w in zip(got, want))


def _cli_check(inp, r: CliResult) -> str | None:
    # Each output is parsed and compared with the same quantity computed in
    # this process; the CLI prints 17 significant digits, so floats must
    # round-trip exactly.
    kind, v = inp
    if r.returncode != 0 or r.child.get("rc") != 0:
        return (f"exit {r.returncode} (main returned {r.child.get('rc')}): "
                f"{r.stderr.strip()[-300:]!r}")
    k = Kappa(v["kappa"])
    d = r.out_dir
    if kind == "eval":
        want = kappa_exp(k, v["x"])
        return None if float(r.stdout) == want else f"eval printed {r.stdout!r}, not {want!r}"
    if kind == "solve":
        p = DecayProblem(k, beta=v["beta"], x_max=X_MAX)
        got = _read_csv_column(d / "solve.csv", "f")
        return None if _same(got, rk4_solve(p, CLI_H).fs) else "solve differs from rk4_solve"
    if kind == "series":
        got = json.loads((d / "series.json").read_text())["coefficients"]
        want = decay_series_solution(k, CLI_SERIES_ORDER).coefficients
        return None if _same(got, want) else "series coefficients differ"
    if kind == "logistic":
        p = LogisticProblem(k, f0=v["f0"], x_max=X_MAX)
        got = _read_csv_column(d / "logistic.csv", "f_method")
        return None if _same(got, rk4_solve(p, CLI_H).fs) else "logistic differs from rk4_solve"
    if kind == "slope-field":
        p = DecayProblem(k, beta=v["beta"], x_max=X_MAX)
        nodes = json.loads((d / "field.json").read_text())["nodes"]
        if len(nodes) != CLI_FIELD_N ** 2:
            return f"slope field has {len(nodes)} nodes"
        bad = [n for n in nodes if n["slope"] != p.rhs(n["x"], n["f"])]
        return f"{len(bad)} slopes differ from the rhs" if bad else None
    # compare
    p = DecayProblem(k, beta=v["beta"], x_max=X_MAX)
    summary = json.loads((d / "summary.json").read_text())
    if (sorted(summary["fitted_orders"]) != sorted(LADDER_ORDERS)
            or len(summary["reports"]) != len(LADDER_ORDERS) * CLI_COMPARE_LEVELS):
        return "compare summary is missing reports"
    for rep in summary["reports"]:
        want = error_table(p, [rep["method"]], rep["h"])[0].max_error
        if rep["max_error"] != want:
            return f"compare {rep['method']} h={rep['h']} max error differs"
    for method, orders in summary["fitted_orders"].items():
        nominal, tol = LADDER_ORDERS[method]
        if len(orders) != CLI_COMPARE_LEVELS - 1 or any(
                abs(o - nominal) > tol for o in orders):
            return f"compare {method} fitted orders {orders}"
    return None


def _cli_work(inp, r: CliResult) -> dict:
    kind, _ = inp
    span = X_MAX
    if kind == "solve":
        steps, levels = grid_steps(span, CLI_H), 0
    elif kind == "logistic":
        steps, levels = grid_steps(2 * span, CLI_H), 0
    elif kind == "compare":
        hs = [CLI_COMPARE_H / 2 ** i for i in range(CLI_COMPARE_LEVELS)]
        steps = len(LADDER_ORDERS) * sum(grid_steps(span, h) for h in hs)
        levels = len(LADDER_ORDERS) * CLI_COMPARE_LEVELS
    else:
        steps, levels = 0, 0
    written = len(r.stdout.encode()) + sum(
        f.stat().st_size for f in r.out_dir.iterdir() if f.is_file())
    return {"steps": steps, "levels": levels, "ladders": 0, "floor_hits": 0,
            "bytes_written": written}


WORKLOADS = {
    w.name: w for w in (
        Workload("decay_ladder", _decay_inputs, _decay_task, _ladder_check,
                 _ladder_work(X_MAX)),
        Workload("logistic_ladder", _logistic_inputs, _logistic_task, _ladder_check,
                 _ladder_work(2 * X_MAX)),
        Workload("oracle", _oracle_inputs, _oracle_task, _oracle_check,
                 _no_solver_work),
        Workload("cli", _cli_inputs, _cli_task, _cli_check, _cli_work,
                 in_child=True),
    )
}
