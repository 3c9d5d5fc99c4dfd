"""Command-line interface: evaluation, solving, series, and figure data.

Data formats are plain CSV (one header row, comma delimiter, '.' decimal
point) and UTF-8 JSON with snake_case keys.  Numbers are printed with 17
significant digits so doubles round-trip, and files are written atomically
(temp file then rename).  Output is fully deterministic: no timestamps.

Exit codes: 0 success, 2 usage, domain or output error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .core import (
    Kappa,
    differential_weight,
    kappa_exp,
    kappa_ln,
    kappa_product,
    kappa_sum,
    to_kappa_number,
)
from .errors import ConvergenceError, DomainError, FloorError
from .harness import error_ladder, fit_ladder
from .ode import (
    MAX_POINTS,
    SOLVERS,
    DecayProblem,
    LogisticProblem,
    analytic_trace,
    logistic_closed_form,
    slope_field,
)
from .series import (
    decay_series_solution,
    exp_kappa_taylor,
    ln_kappa_shifted_taylor,
    picard_iterate,
)

__all__ = ["main", "entrypoint"]


def _fmt(v: float) -> str:
    # The one nan check of CSV and printed output; inf stays a documented
    # result (e.g. an overflowing kappa_product).
    v = float(v)
    if math.isnan(v):
        raise ConvergenceError("result is nan")
    return format(v, ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    # An absolute path discards $KAPPA_OUT_DIR in the join.
    target = os.path.join(os.environ.get("KAPPA_OUT_DIR") or "", path)
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:  # nan or inf, which JSON cannot represent
        # Without allow_nan=False the encoder spells them NaN, Infinity and
        # -Infinity; name the first one as Python prints it.
        bad = re.search(r"NaN|-?Infinity", json.dumps(obj)).group()
        raise ConvergenceError(
            f"non-finite value {float(bad)!r} in JSON output") from None


def _finite_float(text: str) -> float:
    """Type of every float option: nan, inf and non-numbers exit 2."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return v


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes a token such as -3.2e-05 for a negative
    number, not an option.  Stock argparse recognises only -12 and -1.5, so
    `--kappa -3.2e-05` would fail with "expected one argument"; subparsers
    inherit this class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="kappamath",
        description="Deformed exponential mathematics and decay-equation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--kappa", type=_finite_float, default=0.9,
                       help="deformation parameter, |kappa| < 1 (default 0.9)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None,
                       help="output file (default: stdout); relative paths "
                       "resolve against $KAPPA_OUT_DIR when set")

    pe = sub.add_parser("eval", help="evaluate a deformed function")
    pe.add_argument("--fn", required=True,
                    choices=("exp", "ln", "sum", "product", "weight", "knum"))
    pe.add_argument("--kappa", type=_finite_float, required=True)
    pe.add_argument("--x", type=_finite_float, required=True)
    pe.add_argument("--y", type=_finite_float, default=None)

    ps = sub.add_parser("solve", help="solve the decay problem")
    add_common(ps)
    ps.add_argument("--method", default="analytic", choices=("analytic", *SOLVERS))
    ps.add_argument("--beta", type=_finite_float, default=1.0)
    ps.add_argument("--f0", type=_finite_float, default=1.0)
    ps.add_argument("--h", type=_finite_float, default=0.01)
    ps.add_argument("--x-max", type=_finite_float, default=5.0)

    pr = sub.add_parser("series", help="emit series coefficients as JSON")
    pr.add_argument("--target", required=True,
                    choices=("exp", "ln1p", "decay", "picard"))
    pr.add_argument("--order", type=int, default=8)
    pr.add_argument("--kappa", type=_finite_float, default=0.9)
    pr.add_argument("--output", default=None)

    pc = sub.add_parser("compare", help="numerical-vs-analytic error reports")
    methods = ",".join(SOLVERS)
    pc.add_argument("--methods", default=methods,
                    help=f"comma-separated subset of {methods}")
    pc.add_argument("--kappa", type=_finite_float, default=0.9)
    pc.add_argument("--beta", type=_finite_float, default=1.0)
    pc.add_argument("--x-max", type=_finite_float, default=5.0)
    pc.add_argument("--h", type=_finite_float, default=0.01,
                    help="largest step size (ladder start when --levels > 1)")
    pc.add_argument("--levels", type=int, default=1,
                    help="halving ladder depth (1 = single step size)")
    pc.add_argument("--out-dir", default=".",
                    help="directory for the per-report CSVs and summary.json")

    pf = sub.add_parser("slope-field", help="tangent-slope grid for the decay field")
    add_common(pf)
    pf.add_argument("--beta", type=_finite_float, default=1.0)
    pf.add_argument("--x-min", type=_finite_float, default=0.0)
    pf.add_argument("--x-max", type=_finite_float, default=5.0)
    pf.add_argument("--f-min", type=_finite_float, default=0.0)
    pf.add_argument("--f-max", type=_finite_float, default=1.0)
    pf.add_argument("--nx", type=int, default=21)
    pf.add_argument("--nf", type=int, default=21)

    pl = sub.add_parser("logistic", help="logistic closed form vs a numerical method")
    add_common(pl)
    pl.add_argument("--method", default="rk4", choices=tuple(SOLVERS))
    pl.add_argument("--h", type=_finite_float, default=0.01)
    pl.add_argument("--x-max", type=_finite_float, default=5.0)
    pl.add_argument("--f0", type=_finite_float, default=0.5)
    return ap


def _cmd_eval(args) -> int:
    k = Kappa(args.kappa)
    two_arg = args.fn in ("sum", "product")
    if two_arg and args.y is None:
        raise DomainError(f"--fn {args.fn} needs --y")
    if not two_arg and args.y is not None:
        raise DomainError(f"--fn {args.fn} takes only --x")
    fns = {
        "exp": lambda: kappa_exp(k, args.x),
        "ln": lambda: kappa_ln(k, args.x),
        "sum": lambda: kappa_sum(k, args.x, args.y),
        "product": lambda: kappa_product(k, args.x, args.y),
        "weight": lambda: differential_weight(k, args.x),
        "knum": lambda: to_kappa_number(k, args.x),
    }
    print(_fmt(fns[args.fn]()))
    return 0


def _cmd_solve(args) -> int:
    p = DecayProblem(Kappa(args.kappa), beta=args.beta, f0=args.f0, x_max=args.x_max)
    if args.method == "analytic":
        trace = analytic_trace(p, args.h)
    else:
        trace = SOLVERS[args.method](p, args.h)
    if args.format == "csv":
        rows = [[x, f, trace.method, args.kappa, trace.h]
                for x, f in zip(trace.xs, trace.fs)]
        text = _csv(["x", "f", "method", "kappa", "h"], rows)
    else:
        text = _json_text({
            "method": trace.method,
            "kappa": args.kappa,
            "h": trace.h,
            "samples": [{"x": x, "f": f} for x, f in zip(trace.xs, trace.fs)],
        })
    _write_text(args.output, text)
    return 0


def _cmd_series(args) -> int:
    build = {"exp": exp_kappa_taylor,
             "ln1p": ln_kappa_shifted_taylor,
             "decay": decay_series_solution,
             "picard": picard_iterate}[args.target]
    s = build(Kappa(args.kappa), args.order)
    text = _json_text({
        "variable": s.variable,
        "kappa": args.kappa,
        "order": args.order,
        "coefficients": list(s.coefficients),
    })
    _write_text(args.output, text)
    return 0


def _cmd_compare(args) -> int:
    methods = sorted({m for m in args.methods.split(",") if m})
    if not methods:
        raise DomainError("empty method list")
    p = DecayProblem(Kappa(args.kappa), beta=args.beta, x_max=args.x_max)
    ladders = {m: list(error_ladder(p, m, args.h, args.levels)) for m in methods}

    summary = {"kappa": args.kappa, "beta": args.beta, "x_max": args.x_max,
               "reports": [], "fitted_orders": {}, "hit_floor": {}}
    for method, reports in ladders.items():
        fit = fit_ladder(reports)
        summary["reports"] += [{"method": method, "h": r.h, "max_error": r.max_error,
                                "rms_error": r.rms_error} for r in reports]
        summary["fitted_orders"][method] = list(fit.fitted_orders)
        summary["hit_floor"][method] = fit.hit_floor
    # Rendered before any file is written: every abs_error enters an
    # rms_error, so a nan in a CSV makes the summary fail here first.
    summary_text = _json_text(summary)
    for method, reports in ladders.items():
        for i, r in enumerate(reports):
            name = f"errors_{method}_{i}.csv" if args.levels > 1 else f"errors_{method}.csv"
            rows = [[method, r.h, x, e] for x, e in zip(r.xs, r.abs_errors)]
            _write_text(os.path.join(args.out_dir, name),
                        _csv(["method", "h", "x", "abs_error"], rows))
    _write_text(os.path.join(args.out_dir, "summary.json"), summary_text)
    return 0


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if not (1 <= n <= MAX_POINTS):
        raise DomainError(f"grid size must be in [1, {MAX_POINTS}], got {n}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    # nodes run monotonically from lo, so the last one bounds them all
    if math.isfinite(lo + (n - 1) * step):
        return [lo + i * step for i in range(n)]
    # hi - lo overflows, or the last node rounds past the float range:
    # weight the ends instead, which stays finite and puts lo and hi at them
    return [lo * ((n - 1 - i) / (n - 1)) + hi * (i / (n - 1)) for i in range(n)]


def _cmd_slope_field(args) -> int:
    # x_max only bounds solver traces; the slope field just needs the rhs.
    p = DecayProblem(Kappa(args.kappa), beta=args.beta,
                     x_max=max(args.x_max, 1.0))
    if args.nx * args.nf > MAX_POINTS:
        raise DomainError(f"nx * nf must be at most {MAX_POINTS}, "
                          f"got {args.nx} * {args.nf}")
    nodes = slope_field(p,
                        _linspace(args.x_min, args.x_max, args.nx),
                        _linspace(args.f_min, args.f_max, args.nf))
    if args.format == "json":
        text = _json_text({"kappa": args.kappa,
                           "nodes": [{"x": x, "f": f, "slope": s}
                                     for x, f, s in nodes]})
    else:
        text = _csv(["x", "f", "slope"], [list(n) for n in nodes])
    _write_text(args.output, text)
    return 0


def _cmd_logistic(args) -> int:
    lp = LogisticProblem(Kappa(args.kappa), f0=args.f0, x_max=args.x_max)
    trace = SOLVERS[args.method](lp, args.h)
    rows = []
    for x, f in zip(trace.xs, trace.fs):
        exact = logistic_closed_form(lp, x)
        rows.append([x, exact, f, abs(f - exact)])
    if args.format == "json":
        text = _json_text({
            "kappa": args.kappa, "method": args.method, "h": args.h,
            "samples": [{"x": r[0], "f_analytic": r[1], "f_method": r[2],
                         "abs_error": r[3]} for r in rows],
        })
    else:
        text = _csv(["x", "f_analytic", "f_method", "abs_error"], rows)
    _write_text(args.output, text)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "solve": _cmd_solve,
    "series": _cmd_series,
    "compare": _cmd_compare,
    "slope-field": _cmd_slope_field,
    "logistic": _cmd_logistic,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
