"""Error tables, empirical convergence orders, and figure-data reports.

Everything is measured against the closed-form solutions, so the reports
quantify what the solver comparison plots only show qualitatively.
"""

from __future__ import annotations

import math
from operator import attrgetter, sub

from .core import Kappa, Record, kappa_exp
from .errors import DomainError, FloorError
from .ode import SOLVERS
from .series import (
    decay_series_solution,
    evaluate_series,
    picard_iterate,
    picard_iterate_in_x,
)

__all__ = [
    "ErrorReport",
    "ConvergenceReport",
    "SeriesErrorCurve",
    "PicardSeriesReport",
    "ROUNDOFF_FLOOR",
    "MAX_LEVELS",
    "error_table",
    "error_ladder",
    "fit_ladder",
    "convergence_order",
    "series_error_curve",
    "asymptote_check",
    "picard_vs_series",
]

# Below this max error a step-size ladder measures rounding noise, not
# truncation, so fitted orders would be garbage.
ROUNDOFF_FLOOR = 1e-13

# Deepest halving ladder: h0 / 2**7 is already 128 times the work of h0.
MAX_LEVELS = 8


class ErrorReport(Record):
    __slots__ = ("method", "h", "xs", "abs_errors", "max_error", "rms_error")


class ConvergenceReport(Record):
    # fitted_orders: log2 ratio per adjacent ladder pair
    __slots__ = ("method", "step_sizes", "max_errors", "fitted_orders", "hit_floor")


class SeriesErrorCurve(Record):
    # abs_errors: order -> errors on xs
    __slots__ = ("kappa", "orders", "xs", "abs_errors")


class PicardSeriesReport(Record):
    __slots__ = ("n", "max_coefficient_diff", "xs", "pointwise_diffs")


def error_table(p, methods, h: float) -> list[ErrorReport]:
    """Per-method absolute errors against the closed form on the trace grid,
    in sorted method order for determinism: the one-level error_ladder of
    each method, so every method reads the same exact values."""
    unknown = set(methods) - set(SOLVERS)
    if unknown:
        raise DomainError(f"unknown methods: {sorted(unknown)}")
    if not methods:
        raise DomainError("need at least one method")
    return [next(error_ladder(p, m, h, 1)) for m in sorted(set(methods))]


# (problem, grid, exact values): the finest grid evaluated so far for the
# last Record problem.  Replaced in one assignment and never mutated, so
# threads that share it can at worst repeat work.
_memo = (None, (), ())


def _exact_values(p, xs):
    """p.exact on the grid xs, reusing the memo where p is a Record equal to
    the memo's problem: a grid that is the memo's grid at an integer stride
    costs no evaluation, and one whose even points are the memo's grid costs
    evaluations only at its odd points.  Any other grid is evaluated in full
    and becomes the memo.  A p that is not a Record is evaluated in full and
    never stored: only Records are immutable with an == that compares type
    and fields.  Equal fields give the same values up to the sign of a zero,
    which no absolute error sees."""
    global _memo
    if not isinstance(p, Record):
        return tuple(map(p.exact, xs))
    memo_p, memo_xs, memo_ex = _memo
    if p != memo_p:
        memo_xs = ()
    n, m = len(xs) - 1, len(memo_xs) - 1
    if m > 0 and m % n == 0 and xs == memo_xs[::m // n]:
        return memo_ex[::m // n]
    if xs[::2] == memo_xs:
        ex = [0.0] * len(xs)
        ex[::2] = memo_ex
        ex[1::2] = map(p.exact, xs[1::2])
    else:
        ex = map(p.exact, xs)
    ex = tuple(ex)
    _memo = (p, xs, ex)
    return ex


def error_ladder(p, method: str, h0: float, levels: int):
    """Yield the ErrorReport of each level of the halving ladder h0, h0/2, ...,
    stopping after the first level whose max error is below the floor.

    The closed form is read through a one-entry module memo that holds the
    finest grid evaluated so far for the last problem, and its exact values.
    The even points of each level's grid are, bit for bit, the points of the
    level before, so a level evaluates the closed form only at its new odd
    points, and a ladder on a grid the memo already covers (another method's
    ladder on an equal problem) makes no evaluation at all.  The memo is
    reused only for a core.Record problem equal to the memo's; a grid that
    is not nested, or any other problem, is evaluated in full.  After the
    ladder returns, the memo keeps the last problem's finest grid and its
    exact values, at most MAX_POINTS each; no report is held.

    FloorError is raised when a fit was asked for (levels >= 2) but the floor
    stops the ladder at its first level.  Arguments are checked when
    iteration starts.
    """
    if method not in SOLVERS:
        raise DomainError(f"unknown method {method!r}")
    if not (isinstance(levels, int) and 1 <= levels <= MAX_LEVELS):
        raise DomainError(f"levels must be in [1, {MAX_LEVELS}], got {levels!r}")
    for i in range(levels):
        h = h0 / 2**i
        trace = SOLVERS[method](p, h)
        xs = trace.xs
        errors = tuple(map(abs, map(sub, trace.fs, _exact_values(p, xs))))
        del trace
        rms = math.sqrt(sum(e * e for e in errors) / len(errors))
        # max() skips a nan that follows a number; the rms is nan exactly
        # when some error is, so it carries the nan into max_error.
        err = rms if math.isnan(rms) else max(errors)
        if rms == math.inf and err < math.inf:
            # finite errors above about 1e154 overflow their squares
            rms = err * math.sqrt(sum((e / err) ** 2 for e in errors) / len(errors))
        # A consumer that keeps only h and the max error lets each level be
        # freed before the next, twice as large, is built.
        yield ErrorReport(method, h, xs, errors, err, rms)
        del errors
        if err < ROUNDOFF_FLOOR:
            if i == 0 and levels >= 2:
                raise FloorError(f"{method}: error {err:.3e} already "
                                 f"below floor {ROUNDOFF_FLOOR:.1e} at h0")
            return


def _log2_ratio(a: float, b: float) -> float:
    """log2(a / b), and its limits where the ratio is 0 or b is 0: an error
    that grows from a number to inf has order -inf."""
    if b == 0.0:
        return math.inf if a > 0.0 else math.nan
    r = a / b
    return math.log2(r) if r else -math.inf


def fit_ladder(reports) -> ConvergenceReport:
    """Fit empirical orders, the log2 ratio of the max errors of adjacent
    levels, to the reports of one error_ladder.  Only each level's h and max
    error are kept, and no report is held while the next level is built
    (error_ladder itself keeps the last grid and its exact values)."""
    methods, hs, errs = zip(*map(attrgetter("method", "h", "max_error"), reports))
    orders = tuple(map(_log2_ratio, errs[:-1], errs[1:]))
    return ConvergenceReport(methods[0], hs, errs, orders, errs[-1] < ROUNDOFF_FLOOR)


def convergence_order(p, method: str, h0: float, levels: int) -> ConvergenceReport:
    """Fit empirical orders from a halving step-size ladder h0, h0/2, ...;
    the fit is partial when the round-off floor stops the ladder early."""
    return fit_ladder(error_ladder(p, method, h0, levels))


def series_error_curve(k: Kappa, orders, x_grid) -> SeriesErrorCurve:
    """|truncated decay series - exp_k(-x)| per order on the grid."""
    orders = tuple(orders)
    if not orders:
        raise DomainError("need at least one order")
    xs = tuple(float(x) for x in x_grid)
    curves: dict[int, tuple[float, ...]] = {}
    for n in orders:
        s = decay_series_solution(k, n)
        curves[n] = tuple(
            abs(evaluate_series(s, k, x) - kappa_exp(k, -x)) for x in xs)
    return SeriesErrorCurve(k.value, orders, xs, curves)


def asymptote_check(k: Kappa, x: float) -> float:
    """Tail ratio exp_k(-x) * (2|k|x)^(1/|k|); tends to 1 as x -> inf."""
    if k.is_classical:
        raise DomainError("asymptote_check needs kappa != 0")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive, got {x!r}")
    kk = abs(k.value)
    return kappa_exp(k, -x) * (2.0 * kk * x) ** (1.0 / kk)


def picard_vs_series(k: Kappa, n: int, x_grid) -> PicardSeriesReport:
    """Compare Picard iterate n against the series solution: coefficientwise
    (both expanded in x through order n) and pointwise on the grid."""
    it = picard_iterate(k, n)
    s = decay_series_solution(k, n)
    px = picard_iterate_in_x(it, k, n).coefficients
    coeff_diff = max(abs(a - b) for a, b in zip(px, s.coefficients))
    xs = tuple(float(x) for x in x_grid)
    diffs = tuple(
        abs(evaluate_series(it, k, x) - evaluate_series(s, k, x)) for x in xs)
    return PicardSeriesReport(n, coeff_diff, xs, diffs)
