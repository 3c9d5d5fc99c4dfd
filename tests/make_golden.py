"""Regenerate the golden CLI corpus that tests/test_golden.py replays.

    python tests/make_golden.py [OUT_DIR]      (default: tests/golden)

Each case below runs as `kappamath ARGS` in a subprocess, from an empty
working directory, with COLUMNS=80 (argparse wraps --help at the terminal
width) and $KAPPA_OUT_DIR set to the directory's out/ subdirectory, or unset
where a case says so.  OUT_DIR gets:

    manifest.json          every case's name, args, env flag and exit code,
                           one case per line
    <name>/stdout          the bytes the command printed
    <name>/stderr
    <name>/files/<path>    each file it wrote, by its path in the working
                           directory (out/... under $KAPPA_OUT_DIR)
    library.json           library_calls(), the library's closed forms,
                           ladder reports, analytic routes, quadrature,
                           series products and compositions, the series
                           builders (exp_kappa_taylor,
                           ln_kappa_shifted_taylor, sqrt_weight_series,
                           decay_series_solution, and picard_iterate_in_x
                           of the 16th iterate) at four kappas and orders
                           0 to 64, picard_iterate_in_x of other iterates
                           and of series in u near the float maximum, and
                           the logistic residual, on fixed inputs, one
                           call per line: the repr of its result, or the
                           type and message of the error it raises

OUT_DIR is replaced as a whole, if it is empty or holds a corpus.  Only the
standard library is used.  The cases run through the installed `kappamath`
entry point where there is one on PATH, and otherwise as
`python -m kappamath.cli` with this checkout's src/ put first on PYTHONPATH,
so the script also runs in a checkout with no installed package.  A change
that alters output bytes regenerates the corpus and names what changed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# (name, args), and a third item False where $KAPPA_OUT_DIR is unset.
CASES = [
    # eval: every function, the documented inf prints, domain and usage errors
    ("eval-exp", "eval --fn exp --kappa 0.5 --x 1"),
    ("eval-ln", "eval --fn ln --kappa 0.3 --x 2"),
    ("eval-sum", "eval --fn sum --kappa 0.5 --x 1 --y 2"),
    ("eval-product", "eval --fn product --kappa 0.5 --x 1.5 --y -2"),
    ("eval-weight", "eval --fn weight --kappa -3.2e-05 --x 1e5"),
    ("eval-knum", "eval --fn knum --kappa 0.9 --x 3"),
    ("eval-product-inf", "eval --fn product --kappa 0.5 --x 1e10 --y 1e10"),
    ("eval-exp-inf", "eval --fn exp --kappa 0.99 --x 1e308"),
    ("eval-sum-inf", "eval --fn sum --kappa 0 --x 1e308 --y 1e308"),
    ("eval-ln-minus-inf", "eval --fn ln --kappa 0.99 --x 5e-324"),
    ("eval-sum-needs-y", "eval --fn sum --kappa 0.5 --x 1"),
    ("eval-exp-takes-only-x", "eval --fn exp --kappa 0.5 --x 1 --y 2"),
    ("eval-kappa-out-of-range", "eval --fn exp --kappa 1.5 --x 1"),
    ("eval-ln-domain", "eval --fn ln --kappa 0.5 --x -1"),
    ("eval-kappa-not-a-number", "eval --fn exp --kappa abc --x 1"),
    ("eval-x-nan", "eval --fn exp --kappa 0.5 --x nan"),
    ("eval-missing-fn", "eval --kappa 0.5 --x 1"),
    ("eval-bad-fn", "eval --fn cos --kappa 0.5 --x 1"),
    # solve: every method, both formats, the output options, grid edges
    ("solve-csv", "solve --h 0.5"),
    ("solve-json", "solve --h 0.5 --format json"),
    ("solve-euler-csv", "solve --method euler --kappa 0.3 --beta 2 --f0 0.5 --h 0.25 --x-max 1"),
    ("solve-ab2-json", "solve --method ab2 --h 0.5 --x-max 2 --format json"),
    ("solve-rk4-output", "solve --method rk4 --h 0.5 --output trace.csv"),
    ("solve-output-subdir", "solve --h 1 --format json --output a/b/trace.json"),
    ("solve-output-cwd", "solve --h 1 --output trace.csv", False),
    ("solve-two-points-at-float-max",
     "solve --method euler --x-max 1.7976931348623157e308 --h 8.988465674401464e+307"),
    ("solve-beta-x-overflows", "solve --method analytic --beta 1e308 --h 0.5 --x-max 2"),
    ("solve-beta-too-small", "solve --beta 5e-309"),
    ("solve-h-zero", "solve --h 0"),
    ("solve-too-many-points", "solve --h 1e-6"),
    ("solve-nan-csv", "solve --method rk4 --beta 1e300 --kappa 0 --h 1 --x-max 3"),
    ("solve-inf-json",
     "solve --method euler --beta 100 --kappa 0 --h 1 --x-max 200 --format json"),
    ("solve-minus-inf-json",
     "solve --method euler --beta 100 --kappa 0 --h 1 --x-max 155 --format json"),
    ("solve-bad-method", "solve --method heun"),
    # the plain-grammar parser and argparse, which alone takes the
    # abbreviation --kap, print the same bytes
    ("solve-kappa-negative", "solve --h 0.5 --kappa -3.2e-05"),
    ("solve-kappa-abbreviated", "solve --h 0.5 --kap=-3.2e-05"),
    # series: every target; exp is the recurrence with the float sums
    ("series-exp", "series --target exp --order 16"),
    ("series-exp-small-kappa", "series --target exp --order 24 --kappa 0.05"),
    ("series-exp-negative-kappa", "series --target exp --order 12 --kappa -0.7"),
    ("series-ln1p", "series --target ln1p --order 8 --kappa 0.5"),
    ("series-decay", "series --target decay --order 8"),
    ("series-picard-output", "series --target picard --order 6 --output picard.json"),
    ("series-order-too-large", "series --target exp --order 65"),
    ("series-picard-index-too-large", "series --target picard --order 21"),
    ("series-order-not-int", "series --target exp --order 2.5"),
    # compare: one level, ladders, the floor, rms_error in summary.json
    ("compare-one-level", "compare --h 0.5 --x-max 2 --out-dir one"),
    ("compare-ladder", "compare --levels 3 --h 0.5 --x-max 2 --kappa 0.5 --out-dir ladder"),
    ("compare-floor-after-first-level",
     "compare --methods rk4 --levels 6 --h 0.02 --x-max 0.1 --out-dir floor"),
    ("compare-floor-at-first-level",
     "compare --methods rk4 --levels 2 --h 0.001 --x-max 0.01 --out-dir floor"),
    ("compare-cwd", "compare --methods euler,rk4 --h 0.25 --x-max 1 --out-dir reports", False),
    ("compare-nan", "compare --methods euler --beta 100 --kappa 0 --h 1 --x-max 200"),
    ("compare-inf", "compare --methods euler --beta 100 --kappa 0 --h 1 --x-max 155"),
    ("compare-empty-methods", "compare --methods ,"),
    ("compare-unknown-method", "compare --methods euler,heun"),
    ("compare-too-many-levels", "compare --levels 9"),
    # slope-field: both formats, overflow grids, the node bound
    ("slope-field-csv", "slope-field --nx 3 --nf 3"),
    ("slope-field-json", "slope-field --nx 3 --nf 2 --format json --output field.json"),
    ("slope-field-float-range", "slope-field --x-min=-1e308 --x-max=1e308 --nx 3 --nf 2"),
    ("slope-field-beta-f-overflow",
     "slope-field --beta 1e308 --x-max 1e308 --f-max 1e308 --nx 3 --nf 3"),
    ("slope-field-too-many-nodes", "slope-field --nx 101 --nf 9901"),
    ("slope-field-empty-grid", "slope-field --nx 0"),
    # logistic: both formats, an overflowing range from a normal start, a
    # start below the normal range, a bad f0
    ("logistic-csv", "logistic --h 0.5 --x-max 2"),
    ("logistic-json", "logistic --method euler --h 1 --x-max 3 --f0 0.2 --format json"),
    ("logistic-float-range", "logistic --kappa 0.99 --f0 0.999999 --x-max 1e308 --h 1e307"),
    ("logistic-start-below-normal-range", "logistic --x-max 1e308 --h 1e307"),
    ("logistic-f0-out-of-range", "logistic --f0 1.5"),
    # the parser: help of every command, no command, unknown input
    ("help", "--help"),
    ("help-eval", "eval --help"),
    ("help-solve", "solve --help"),
    ("help-series", "series -h"),
    ("help-compare", "compare --help"),
    ("help-slope-field", "slope-field --help"),
    ("help-logistic", "logistic --help"),
    ("no-command", ""),
    ("unknown-command", "plot"),
    ("unknown-option", "solve --h 0.5 --colour red"),
    # a value "--", which argparse reads as the end of options
    ("output-dashes", "slope-field --nx 2 --nf 2 --output=--"),
    ("output-abbreviated-dashes", "slope-field --nx 2 --nf 2 --out=--"),
    ("out-dir-dashes", "compare --out-dir=--"),
    ("methods-dashes", "compare --methods=--"),
    ("kappa-dashes", "solve --kappa=--"),
    ("fn-dashes", "eval --fn=-- --kappa 0.5 --x 1"),
    ("order-dashes", "series --target decay --order=--"),
]


def library_calls() -> list[tuple]:
    """(name, function, args) of each call of the library table: the closed
    forms at ordinary points and at the limits they keep (kappa = 0, the
    series branch of a tiny kappa beta x, beta x overflowing to +-inf, exp
    overflowing, f0 = +-0, a subnormal logistic f0, nan, +-inf and an int
    beyond the float range), and the traces and reports built on them; then
    the other analytic routes, the closed forms and decay routes in each
    branch of their float-range kernels, ode._times_exp and
    ode._logistic_parts (exp(u) below its normal range with a large,
    negative or subnormal f0 that brings the value back into view, a
    signed zero f0, and past exp's overflow a small f0 or a logistic f0
    near 1), the quadrature, the series products and compositions, the series
    builders at kappa 0, 0.5, -0.95 and 1e-300 and orders 0, 1, 16, 48 and
    64, the expansion in x of iterates 0, 5 and 20 at kappa +-0.99 and 0.3
    and of series in u near the float maximum, the comparison reports, and
    the logistic residual in each of its kernel's three forms, with their
    overflows and refusals, and both slopes rhs(x, f).  The integrands are
    builtins, or partials of them, whose repr is the same in every run."""
    from functools import partial

    from kappamath import (DecayProblem, Kappa, LogisticProblem, PowerSeries,
                           adaptive_quadrature, analytic_trace, asymptote_check,
                           closed_form_decay, convergence_order, decay_series_solution,
                           error_table, exp_kappa_taylor, kappa_integral,
                           ln_kappa_shifted_taylor, logistic_closed_form, logistic_residual,
                           picard_iterate, picard_vs_series, quadrature_decay,
                           residual_decay, series_compose, series_multiply,
                           sqrt_weight_series, substitution_decay)
    from kappamath.series import picard_iterate_in_x

    xs = (0.0, -0.0, 0.1, 1.0, 3, -2.0, 2.0, -8.0, -800.0, 5e-324, 1e308, -1e308,
          float("nan"), float("inf"), float("-inf"), 10**400)
    decays = (
        DecayProblem(Kappa(0.5)),
        DecayProblem(Kappa(0.0), beta=2.0, f0=-1.5, x_max=2.0),
        DecayProblem(Kappa(1e-300), beta=1e-3, f0=0.25),
        DecayProblem(Kappa(-0.9), beta=1e308, f0=3.0, x_max=2.0),
        DecayProblem(Kappa(0.0), beta=1e300, f0=-0.0, x_max=2.0),
        DecayProblem(Kappa(0.0), beta=2.247116418577895e307, f0=0.0),
        DecayProblem(Kappa(0.0), f0=2.0),
    )
    logistics = (
        LogisticProblem(Kappa(0.5)),
        LogisticProblem(Kappa(0.0), f0=0.2, x_max=1000.0),
        LogisticProblem(Kappa(0.0), f0=5e-324, x_max=1000.0),
        LogisticProblem(Kappa(1e-300), f0=0.75),
        LogisticProblem(Kappa(-0.99), x_max=1e308),
    )
    calls = [("closed_form_decay", closed_form_decay, (p, x)) for p in decays for x in xs]
    calls += [("logistic_closed_form", logistic_closed_form, (lp, x))
              for lp in logistics for x in xs]
    d1, d2, d3, d4, d5, _, _ = decays
    l1, l2, l3, _, l5 = logistics
    calls += [("analytic_trace", analytic_trace, args) for args in (
        (d1, 0.5), (d2, 0.25), (d4, 0.25), (d5, 0.5), (l1, 1.0), (l2, 250.0),
        (l3, 250.0), (l5, 2e307), (d1, 0.0), (d1, float("nan")))]
    stiff = DecayProblem(Kappa(0.0), beta=100.0, x_max=200.0)
    calls += [("error_table", error_table, args) for args in (
        (d1, ["ab2", "euler", "rk4"], 0.25), (d4, ["rk4"], 0.5), (d5, ["euler", "rk4"], 0.5),
        (DecayProblem(Kappa(0.5), beta=1e308, x_max=2.0), ["euler", "rk4"], 0.5),
        (l1, ["euler", "rk4"], 0.5), (l2, ["rk4"], 250.0), (l3, ["ab2"], 250.0),
        (stiff, ["euler"], 1.0), (d1, ["heun"], 0.25))]
    calls += [("convergence_order", convergence_order, args) for args in (
        (d1, "rk4", 0.1, 4), (d2, "euler", 0.25, 3), (l1, "ab2", 0.25, 3),
        (DecayProblem(Kappa(0.5), x_max=0.1), "rk4", 0.02, 6),
        (DecayProblem(Kappa(0.5), x_max=0.01), "rk4", 0.001, 2))]
    # an int beta past the float range is stored as a float
    calls += [("closed_form_decay", closed_form_decay, (DecayProblem(Kappa(kv), beta=10**300), x))
              for kv in (0.0, 0.5) for x in (10**10, -10**10)]
    nan, inf = math.nan, math.inf
    for name, fn in (("quadrature_decay", quadrature_decay),
                     ("substitution_decay", substitution_decay)):
        calls += [(name, fn, args) for args in (
            (d1, 0.0), (d1, 1.0), (d1, 5.0), (d2, 2.0), (d3, 5.0), (d4, 2.0),
            (d1, -1.0), (d1, 5.5), (d1, nan))]
    # exp(u) below its normal range, times f0 = 1e300 or 1e20, or over a
    # subnormal logistic f0
    big = DecayProblem(Kappa(0.0), f0=1e300, x_max=800.0)
    calls += [(name, fn, (big, 800.0)) for name, fn in (
        ("closed_form_decay", closed_form_decay), ("substitution_decay", substitution_decay),
        ("quadrature_decay", quadrature_decay))]
    calls += [("closed_form_decay", closed_form_decay,
               (DecayProblem(Kappa(0.0), f0=1e20, x_max=740.0), 740.0)),
              ("logistic_closed_form", logistic_closed_form,
               (LogisticProblem(Kappa(0.0), f0=5e-324, x_max=744.0), 744.0))]
    # the same form for a negative f0; a signed zero f0, inside exp's normal
    # range and below it; and past exp's overflow, a small f0 of either
    # sign or a logistic f0 near 1 that brings the value back into view
    for p, x in ((DecayProblem(Kappa(0.0), f0=-1e300, x_max=800.0), 800.0),
                 (DecayProblem(Kappa(0.0), f0=-0.0, x_max=800.0), 1.0),
                 (DecayProblem(Kappa(0.0), f0=-0.0, x_max=800.0), 800.0)):
        calls += [(name, fn, (p, x)) for name, fn in (
            ("closed_form_decay", closed_form_decay), ("substitution_decay", substitution_decay),
            ("quadrature_decay", quadrature_decay))]
    calls += [("closed_form_decay", closed_form_decay, (DecayProblem(Kappa(0.0), f0=f0), -710.0))
              for f0 in (1e-300, -1e-300)]
    calls += [("logistic_closed_form", logistic_closed_form,
               (LogisticProblem(Kappa(0.0), f0=0.9999999999999999), -710.0))]
    calls += [("residual_decay", residual_decay, args) for args in (
        (d1, 1.0, -1.0, 0.0), (d1, 0.5, -0.3, 1.0), (d4, 3.0, -1e300, -2.0),
        # beta f and hypot(1/beta, kappa x) f' overflow with opposite signs
        (DecayProblem(Kappa(1e-300), beta=1e300, x_max=1.7976931348623157e308),
         -1e300, 1e300, 1e100),
        (d1, nan, 1.0, 1.0), (d1, 1.0, 1.0, 10**400))]
    inf_integrand = partial(math.copysign, math.inf)
    calls += [("adaptive_quadrature", adaptive_quadrature, args) for args in (
        (math.cos, 0.0, 1.0), (math.sqrt, 0.0, 1.0), (abs, -1.0, 2.0), (math.atan, 3.0, 3.0),
        (partial(math.hypot, 1e308), 0.0, 10.0), (inf_integrand, 0.0, 1.0),
        (math.cos, 1.0, 0.0), (math.cos, 0.0, nan), (math.cos, 0.0, 10**400))]
    calls += [("kappa_integral", kappa_integral, args) for args in (
        (Kappa(0.9), math.cos, 0.0, 1.0), (Kappa(0.0), math.exp, 0.0, 1.0),
        (Kappa(-0.5), abs, -2.0, 3.0), (Kappa(0.5), inf_integrand, 0.0, 1.0),
        (Kappa(0.5), math.cos, 2.0, 1.0), (Kappa(0.5), math.cos, -inf, 1.0))]
    calls += [("series_multiply", series_multiply, args) for args in (
        ([1.0, 2.0, 3.0], [1.0, -1.0], 4), ([0.5, 0.25], [2.0, 0.0, 8.0], 1),
        ([1e200, 0.0], [1e200], 1),
        # terms that overflow with both signs
        ([1e300, 1e300], [1e300, -1e300], 1),
        ([1.0], [1.0], 65), ([1.0], [1.0], 2.0), ([nan], [1.0], 2))]
    calls += [("series_compose", series_compose, args) for args in (
        ([1.0, 1.0, 0.5, 1.0 / 6.0], [0.0, 1.0, 0.5], 3), ([2.0, -1.0], [0.0, 3.0], 4),
        # terms that overflow with both signs, and a zero times an overflowed power
        ([1e300, 1e300, 1e300], [0.0, 1e300, -1e300], 2), ([1.0, 0.0, 0.0, 1.0], [0.0, 1e200], 3),
        ([1.0], [1.0], 2), ([1.0], [0.0], 65), ([1.0], [0.0, inf], 2),
        # an overflowed power term meets a zero inside the inner series, which adds nothing
        ([1.0] * 5, [0.0, 1e200, 0.0, 1.0], 4), ([0.0, 0.0, 1.0, 1.0], [0.0, 1e200, 0.0, 1.0], 4),
        # an empty inner series, and a -0.0 constant term
        ([2.0, 1.0], [], 3), ([2.0, 1.0], [-0.0], 3))]
    # the series builders, bit for bit, from order 0 to MAX_ORDER
    kappas = (Kappa(0.0), Kappa(0.5), Kappa(-0.95), Kappa(1e-300))
    orders = (0, 1, 16, 48, 64)
    for name, fn in (("exp_kappa_taylor", exp_kappa_taylor),
                     ("ln_kappa_shifted_taylor", ln_kappa_shifted_taylor),
                     ("sqrt_weight_series", sqrt_weight_series),
                     ("decay_series_solution", decay_series_solution)):
        calls += [(name, fn, (k, order)) for k in kappas for order in orders]
    calls += [("picard_iterate_in_x", picard_iterate_in_x, (picard_iterate(k, 16), k, order))
              for k in kappas for order in orders]
    # other iterates at kappa near +-1, and a user series in u whose
    # coefficients near the float maximum meet coordinate terms below 1,
    # above 1 or of both signs
    calls += [("picard_iterate_in_x", picard_iterate_in_x, (picard_iterate(k, n), k, order))
              for n in (0, 5, 20) for k in (Kappa(0.99), Kappa(-0.99), Kappa(0.3))
              for order in (16, 64)]
    fmax = sys.float_info.max
    calls += [("picard_iterate_in_x", picard_iterate_in_x, (PowerSeries("u", c), Kappa(kv), order))
              for c, kv, order in (
                  ([0.0] * 20 + [fmax], 1e-3, 24), ([0.0] * 20 + [fmax], 0.99, 24),
                  ([fmax] * 21, 0.99, 24), ([fmax, -fmax] * 5, 0.5, 12))]
    calls += [("picard_vs_series", picard_vs_series, args) for args in (
        (Kappa(0.5), 4, [0.0, 0.5, 1.0]), (Kappa(-0.3), 0, [0.1]), (Kappa(0.9), 8, [-2.0, 2.0]),
        # both routes are inf
        (Kappa(0.0), 8, [1e100]),
        (Kappa(0.5), 21, [0.5]), (Kappa(0.5), 3, [nan]),
        # the oracle's iterate, at six points
        (Kappa(0.43), 16, [0.0, 0.3, 1.0, 2.5, 4.0, 5.0]),
        (Kappa(-0.99), 16, [0.1, 0.5, 1.5, 2.0, 3.5, 5.0]))]
    # the residual where a subnormal f0 meets exp(u) below its normal range,
    # and at an f0 near 1 inside that range and past exp's overflow
    calls += [("logistic_residual", logistic_residual,
               (LogisticProblem(Kappa(0.0), f0=5e-324, x_max=1000.0), x)) for x in (740.0, 744.0)]
    calls += [("logistic_residual", logistic_residual,
               (LogisticProblem(Kappa(0.0), f0=0.9999999999999999), x)) for x in (2.0, -710.0)]
    # both slopes at ordinary points, where f (1 - f) overflows, and where
    # 1/hypot(1, k x) is subnormal: a change of either slope's form moves lines
    slopes = [(p, args) for p in (d1, l1) for args in (
        (0.0, 0.5), (1.0, 0.25), (1.5, 0.3), (-2.0, 0.9), (3.0, -1.5), (2.0, 1e200))]
    slopes += [(p, (1.7737777866880924e308, -1.3653782912056874e115)) for p in (
        DecayProblem(Kappa(0.9801161035974092)), LogisticProblem(Kappa(0.9801161035974092)))]
    calls += [(f"{p!r}.rhs", p.rhs, args) for p, args in slopes]
    calls += [("asymptote_check", asymptote_check, args) for args in (
        (Kappa(0.5), 10.0), (Kappa(0.5), 1e6), (Kappa(-0.9), 1e308),
        # at a tiny kappa the log of the ratio once cancelled past the float range
        (Kappa(5.04318622038353e-270), 1.7976931348623157e308), (Kappa(1e-300), 1e300),
        (Kappa(0.0), 10.0), (Kappa(0.5), -1.0), (Kappa(0.5), inf))]
    return calls


def library_table() -> list[dict]:
    """Each call of library_calls() as {"call": its text, "repr": the repr of
    its result} or {"call": ..., "raises": [error type, message]}."""
    from kappamath import ConvergenceError, DomainError

    table = []
    for name, fn, args in library_calls():
        entry = {"call": f"{name}({', '.join(map(repr, args))})"}
        try:
            entry["repr"] = repr(fn(*args))
        except (DomainError, ConvergenceError) as e:
            entry["raises"] = [type(e).__name__, str(e)]
        table.append(entry)
    return table


def json_lines(entries: list[dict]) -> str:
    """A JSON list with one entry per line."""
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    return f"[\n{lines}\n]\n"


def files_under(root: Path) -> dict[str, bytes]:
    """Every file under root, by its /-separated path relative to root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def kappamath_command(installed: str | None, pythonpath: str | None,
                      ) -> tuple[list[str], dict[str, str]]:
    """The command that runs the CLI, and the variables it adds to the
    environment: the entry point where shutil.which found one (installed),
    else this interpreter on kappamath.cli, with the checkout's src/ before
    the caller's PYTHONPATH."""
    if installed is not None:
        return ["kappamath"], {}
    return ([sys.executable, "-m", "kappamath.cli"],
            {"PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), pythonpath)))})


def _run(command: list[str], extra_env: dict[str, str], args: list[str],
         out_dir_env: bool, work: Path):
    env = dict(os.environ, COLUMNS="80", **extra_env)
    env.pop("KAPPA_OUT_DIR", None)
    if out_dir_env:
        env["KAPPA_OUT_DIR"] = str(work / "out")
    return subprocess.run([*command, *args], cwd=work, env=env,
                          capture_output=True, check=False)


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else HERE / "golden"
    installed = shutil.which("kappamath")
    command, extra_env = kappamath_command(installed, os.environ.get("PYTHONPATH"))
    if installed is None:
        # library_table() imports kappamath in this process as well
        sys.path.insert(0, str(SRC))
    if out.exists() and any(out.iterdir()) and not (out / "manifest.json").is_file():
        print(f"make_golden: {out} holds no corpus; not replacing it", file=sys.stderr)
        return 1
    shutil.rmtree(out, ignore_errors=True)
    manifest = []
    for name, line, *flag in CASES:
        args = line.split()
        out_dir_env = flag[0] if flag else True
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            run = _run(command, extra_env, args, out_dir_env, work)
            written = files_under(work)
        if run.returncode not in (0, 2, 3):  # not an exit code of kappamath
            sys.stderr.buffer.write(run.stderr)
            print(f"make_golden: case {name} exited {run.returncode}", file=sys.stderr)
            return 1
        case_dir = out / name
        case_dir.mkdir(parents=True)
        (case_dir / "stdout").write_bytes(run.stdout)
        (case_dir / "stderr").write_bytes(run.stderr)
        for path, data in written.items():
            target = case_dir / "files" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        manifest.append({"name": name, "args": args, "kappa_out_dir": out_dir_env,
                         "exit": run.returncode})
    (out / "manifest.json").write_text(json_lines(manifest), encoding="utf-8")
    (out / "library.json").write_text(json_lines(library_table()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
