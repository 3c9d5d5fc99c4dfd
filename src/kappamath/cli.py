"""Command-line interface: evaluation, solving, series, and figure data.

Data formats are plain CSV (one header row, comma delimiter, '.' decimal
point) and UTF-8 JSON with snake_case keys.  Numbers are printed with 17
significant digits so doubles round-trip, and files are written atomically
(temp file then rename).  Output is fully deterministic: no timestamps.

Exit codes: 0 success, 2 usage, domain or output error, 3 numerical failure.
"""

import math
import os
import sys
from itertools import chain
from operator import sub
from types import SimpleNamespace

from .core import (
    Kappa,
    differential_weight,
    kappa_exp,
    kappa_ln,
    kappa_product,
    kappa_sum,
    to_kappa_number,
)
from .errors import ConvergenceError, DomainError
from .ode import (
    MAX_POINTS,
    SOLVERS,
    DecayProblem,
    LogisticProblem,
    analytic_trace,
    slope_field,
)

__all__ = ["main", "entrypoint"]


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


def _csv(columns, rows, **fixed) -> str:
    """CSV text: the header `columns`, then one line per row.  A column named
    in `fixed` holds that value on every line; each row is a tuple of the
    values of the other columns, in order.  Every line is one `%` of a
    template built once per table, each number as %.17g, the text of
    format(v, ".17g"): a fixed cell rendered once (a str as it is), and the
    other columns by the template."""
    template = ",".join(
        "%.17g" if c not in fixed
        else fixed[c].replace("%", "%%") if isinstance(fixed[c], str)
        else "%.17g" % fixed[c]
        for c in columns)
    return "\n".join([",".join(columns), *map(template.__mod__, rows)]) + "\n"


def _json_text(obj) -> str:
    import json
    import re

    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:  # nan or inf, which JSON cannot represent
        # Without allow_nan=False the encoder spells them NaN, Infinity and
        # -Infinity; name the first one outside a string as Python prints it.
        found = re.finditer(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity)', json.dumps(obj))
        v = float(next(m[1] for m in found if m[1]))
        raise ConvergenceError(f"non-finite value {v!r} in JSON output") from None


def _json_table(names, rows, key, meta) -> str:
    """The text of _json_text({**meta, key: [dict(zip(names, row)) for row in
    rows]}), with each row one `%` of a template built once per table: json
    writes a float as float.__repr__, which is %r."""
    import json

    head = _json_text({**meta, key: []})
    rows = list(rows)
    if not rows:
        return head
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        # the head is finite: _json_text names the first cell that is not
        return _json_text({**meta, key: [dict(zip(names, row)) for row in rows]})
    cells = ",\n".join(f"      {json.dumps(n).replace('%', '%%')}: %r" for n in names)
    template = "    {\n" + cells + "\n    }"
    # head ends with the empty list, '[]\n}\n': open it and fill it
    return head[:-4] + "\n" + ",\n".join(map(template.__mod__, rows)) + "\n  ]\n}\n"


def _write_table(args, columns, rows, key="samples", **meta) -> None:
    """Write one table to args.output in args.format, by one rule: each row
    holds the values of the columns that are not meta fields, and the
    columns that are meta fields come last.  CSV has the header `columns`,
    and a meta column repeats its value on every row.  JSON is one object:
    the meta fields in order, then the rows under `key`, each an object of
    the columns that are not meta fields, so a meta field appears once.
    Either format renders every row from one template: the meta values are
    rendered once, and each number of a row with %.17g in CSV and %r
    (float.__repr__, as json writes it) in JSON."""
    if args.format == "json":
        text = _json_table([c for c in columns if c not in meta], rows, key, meta)
    else:
        text = _csv(columns, rows, **meta)
    _write_text(args.output, text)


def _finite_float(text: str) -> float:
    """Type of every float option: nan, inf and non-numbers exit 2."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        import argparse

        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return v


# A token such as -3.2e-05 is a negative number, not an option: stock
# argparse recognises only -12 and -1.5, so `--kappa -3.2e-05` would fail
# there with "expected one argument".  _build_parser and _parse_plain share
# this pattern, which only they compile.
_NEGATIVE_NUMBER = r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"


# Each name table is also its option's choices.
_EVAL_FNS = {"exp": kappa_exp, "ln": kappa_ln, "sum": kappa_sum, "product": kappa_product,
             "weight": differential_weight, "knum": to_kappa_number}
# the name of each target's function in series, which only its command imports
_SERIES_TARGETS = {"exp": "exp_kappa_taylor", "ln1p": "ln_kappa_shifted_taylor",
                   "decay": "decay_series_solution", "picard": "picard_iterate"}
_SOLVE_METHODS = {"analytic": analytic_trace, **SOLVERS}

_ALL_METHODS = ",".join(SOLVERS)

# One spec per flag: each add_argument keyword of an option is written here
# once, and a command states only what differs for it (see _COMMANDS).
_OPTIONS = {
    "--kappa": {"type": _finite_float, "default": 0.9,
                "help": "deformation parameter, |kappa| < 1"},
    "--beta": {"type": _finite_float, "default": 1.0},
    "--f0": {"type": _finite_float, "default": 0.5},
    "--x-max": {"type": _finite_float, "default": 5.0},
    "--h": {"type": _finite_float, "default": 0.01},
    "--method": {"default": "rk4", "choices": SOLVERS},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--output": {"default": None,
                 "help": "output file (default: stdout); relative paths "
                 "resolve against $KAPPA_OUT_DIR when set"},
    "--fn": {"required": True, "choices": _EVAL_FNS},
    "--x": {"type": _finite_float, "required": True},
    "--y": {"type": _finite_float, "default": None},
    "--target": {"required": True, "choices": _SERIES_TARGETS},
    "--order": {"type": int, "default": 8},
    "--methods": {"default": _ALL_METHODS,
                  "help": f"comma-separated subset of {_ALL_METHODS}"},
    "--levels": {"type": int, "default": 1,
                 "help": "halving ladder depth (1 = single step size)"},
    "--out-dir": {"default": ".",
                  "help": "directory for the per-report CSVs and summary.json"},
    "--x-min": {"type": _finite_float, "default": 0.0},
    "--f-min": {"type": _finite_float, "default": 0.0},
    "--f-max": {"type": _finite_float, "default": 1.0},
    "--nx": {"type": int, "default": 21},
    "--nf": {"type": int, "default": 21},
}


def _specs(flags: str, differs: dict) -> dict:
    """Each of the options `flags`, in order, mapped to its _OPTIONS spec with
    the keywords in differs[flag] put over it."""
    return {flag: {**_OPTIONS[flag], **differs.get(flag, {})} for flag in flags.split()}


def _cmd_eval(args) -> None:
    k = Kappa(args.kappa)
    fn = _EVAL_FNS[args.fn]
    two_arg = fn in (kappa_sum, kappa_product)
    if two_arg and args.y is None:
        raise DomainError(f"--fn {args.fn} needs --y")
    if not two_arg and args.y is not None:
        raise DomainError(f"--fn {args.fn} takes only --x")
    print("%.17g" % (fn(k, args.x, args.y) if two_arg else fn(k, args.x)))


def _cmd_solve(args) -> None:
    p = DecayProblem(Kappa(args.kappa), beta=args.beta, f0=args.f0, x_max=args.x_max)
    trace = _SOLVE_METHODS[args.method](p, args.h)
    _write_table(args, ["x", "f", "method", "kappa", "h"], zip(trace.xs, trace.fs),
                 method=trace.method, kappa=args.kappa, h=trace.h)


def _cmd_series(args) -> None:
    from . import series

    s = getattr(series, _SERIES_TARGETS[args.target])(Kappa(args.kappa), args.order)
    text = _json_text({
        "variable": s.variable,
        "kappa": args.kappa,
        "order": args.order,
        "coefficients": list(s.coefficients),
    })
    _write_text(args.output, text)


def _cmd_compare(args) -> None:
    from .harness import error_ladder, fit_ladder

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
    # Rendered first: a non-finite error fails it before any file is written.
    summary_text = _json_text(summary)
    for method, reports in ladders.items():
        for i, r in enumerate(reports):
            name = f"errors_{method}_{i}.csv" if args.levels > 1 else f"errors_{method}.csv"
            _write_text(os.path.join(args.out_dir, name),
                        _csv(["method", "h", "x", "abs_error"], zip(r.xs, r.abs_errors),
                             method=method, h=r.h))
    _write_text(os.path.join(args.out_dir, "summary.json"), summary_text)


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


def _cmd_slope_field(args) -> None:
    # the rhs does not read x_max, which only bounds solver traces
    p = DecayProblem(Kappa(args.kappa), beta=args.beta)
    nodes = slope_field(p,
                        _linspace(args.x_min, args.x_max, args.nx),
                        _linspace(args.f_min, args.f_max, args.nf))
    _write_table(args, ["x", "f", "slope"], nodes, key="nodes", kappa=args.kappa)


def _cmd_logistic(args) -> None:
    lp = LogisticProblem(Kappa(args.kappa), f0=args.f0, x_max=args.x_max)
    trace = SOLVERS[args.method](lp, args.h)
    exact = analytic_trace(lp, args.h).fs
    rows = zip(trace.xs, exact, trace.fs, map(abs, map(sub, trace.fs, exact)))
    _write_table(args, ["x", "f_analytic", "f_method", "abs_error"], rows,
                 kappa=args.kappa, method=args.method, h=args.h)


# Each command: its name, handler, help line, its flags in the order of the
# help, and what differs for it from the _OPTIONS spec of a flag.
_COMMANDS = (
    ("eval", _cmd_eval, "evaluate a deformed function",
     "--fn --kappa --x --y", {"--kappa": {"required": True}}),
    ("solve", _cmd_solve, "solve the decay problem",
     "--kappa --format --output --method --beta --f0 --h --x-max",
     {"--method": {"default": "analytic", "choices": _SOLVE_METHODS},
      "--f0": {"default": 1.0}}),
    ("series", _cmd_series, "emit series coefficients as JSON",
     "--target --order --kappa --output", {}),
    ("compare", _cmd_compare, "numerical-vs-analytic error reports",
     "--methods --kappa --beta --x-max --h --levels --out-dir",
     {"--h": {"help": "largest step size (ladder start when --levels > 1)"}}),
    ("slope-field", _cmd_slope_field, "tangent-slope grid for the decay field",
     "--kappa --format --output --beta --x-min --x-max --f-min --f-max --nx --nf", {}),
    ("logistic", _cmd_logistic, "logistic closed form vs a numerical method",
     "--kappa --format --output --method --h --x-max --f0", {}),
)


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that _build_parser().parse_args(argv) gives, for argv
    in the plain grammar: a command name, then only that command's flags,
    each as --flag=value or as --flag and a value that does not start with
    '-' unless it is a negative number; each value converted by its
    option's type and in its choices, a repeated flag's last value kept,
    and every required flag given.  Anything else gives None: -h, --,
    abbreviated or unknown flags, and every value argparse would refuse."""
    for name, handler, _, flags, differs in _COMMANDS:
        if argv[:1] == [name]:
            break
    else:
        return None
    specs = _specs(flags, differs)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, None)
            if text is None:
                return None
            if text.startswith("-"):
                import re

                if not re.match(_NEGATIVE_NUMBER, text):
                    return None
        spec = specs.get(flag)
        # argparse drops a value "--" on some versions and keeps it on others
        if spec is None or text == "--":
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse reports the failure as a usage error
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    if any(spec.get("required") and flag not in values for flag, spec in specs.items()):
        return None
    return SimpleNamespace(command=name, handler=handler, **{
        flag[2:].replace("-", "_"): values.get(flag, spec.get("default"))
        for flag, spec in specs.items()})


def _build_parser():
    """The argparse.ArgumentParser of the CLI.  main parses with it only
    where _parse_plain gives None, so argparse is imported only to print
    help or a usage error, or to parse a form outside the plain grammar,
    such as an abbreviated flag.  Like _parse_plain, it takes a token such
    as -3.2e-05 for a negative number, and it refuses a value "--"."""
    import argparse
    import re

    class Parser(argparse.ArgumentParser):  # the class of every subparser too
        def _get_values(self, action, arg_strings):
            # a value "--" (--kappa=--) ends the options: Python 3.10 to 3.12
            # drop it and 3.13 converts it by the option's type and choices;
            # it is this one usage error on every version
            if action.option_strings and arg_strings == ["--"]:
                self.error(f"argument {'/'.join(action.option_strings)}: "
                           "expected one argument")
            return super()._get_values(action, arg_strings)

    negative_number = re.compile(_NEGATIVE_NUMBER)
    ap = Parser(
        prog="kappamath",
        description="Deformed exponential mathematics and decay-equation toolkit")
    ap._negative_number_matcher = negative_number
    sub = ap.add_subparsers(dest="command", required=True)
    for name, handler, help, flags, differs in _COMMANDS:
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = negative_number
        p.set_defaults(handler=handler)
        for flag, spec in _specs(flags, differs).items():
            p.add_argument(flag, **spec)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (DomainError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:  # FloorError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
