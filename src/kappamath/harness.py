"""Error tables, empirical convergence orders, and figure-data reports.

Everything is measured against the closed-form solutions, so the reports
quantify what the solver comparison plots only show qualitatively.
"""

import math
from operator import attrgetter, sub

from .core import Kappa, Record, _finite, _isfinite, kappa_exp
from .errors import ConvergenceError, DomainError, FloorError
from .ode import MAX_LEVELS, SOLVERS, _exact_values

# series is imported inside series_error_curve and picard_vs_series, its
# only users, so the ladders and the CLI's compare never load it.

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

class ErrorReport(Record):
    __slots__ = ("method", "h", "xs", "abs_errors", "max_error", "rms_error")


class ConvergenceReport(Record):
    # fitted_orders: log2 ratio per adjacent ladder pair
    __slots__ = ("method", "step_sizes", "max_errors", "fitted_orders", "hit_floor")


class SeriesErrorCurve(Record):
    # abs_errors: one tuple of errors on xs per entry of orders
    __slots__ = ("kappa", "orders", "xs", "abs_errors")


class PicardSeriesReport(Record):
    __slots__ = ("n", "max_coefficient_diff", "xs", "pointwise_diffs")


def error_table(p, methods, h: float) -> list[ErrorReport]:
    """Per-method absolute errors against the closed form on the trace grid,
    in sorted method order for determinism: the one-level error_ladder of
    each method."""
    methods = sorted(set(methods))
    unknown = [m for m in methods if m not in SOLVERS]
    if unknown:
        raise DomainError(f"unknown methods: {unknown}")
    if not methods:
        raise DomainError("need at least one method")
    return [next(error_ladder(p, m, h, 1)) for m in methods]


def _rms(errors: tuple) -> float:
    """Root mean square of the errors, as their hypot over sqrt(len): within
    2.5 ulp of the exact value, where a left-to-right sum of squares strays
    by 10 ulp and more.  Where the norm of finite errors passes the float
    maximum it is taken of the errors scaled by the largest."""
    root_n = math.sqrt(len(errors))
    rms = math.hypot(*errors) / root_n
    if rms == math.inf:
        err = max(errors)
        if err < math.inf:
            rms = err * (math.hypot(*[e / err for e in errors]) / root_n)
    return rms


def error_ladder(p, method: str, h0: float, levels: int):
    """Yield the ErrorReport of each level of the halving ladder h0, h0/2, ...,
    stopping after the first level whose max error is below the floor; no
    report is held across levels.

    FloorError is raised when a fit was asked for (levels >= 2) but the floor
    stops the ladder at its first level, and ConvergenceError names the first
    x where the trace and the closed form overflow to the same infinity.
    Arguments are checked when iteration starts.
    """
    if method not in SOLVERS:
        raise DomainError(f"unknown method {method!r}")
    if not (isinstance(levels, int) and 1 <= levels <= MAX_LEVELS):
        raise DomainError(f"levels must be in [1, {MAX_LEVELS}], got {levels!r}")
    for i in range(levels):
        # a non-finite h0 reaches the solver as it is, and the solver refuses it
        h = h0 / 2**i if _isfinite(h0) else h0
        trace = SOLVERS[method](p, h)
        xs = trace.xs
        exact = _exact_values(p, h, xs)
        errors = tuple(map(abs, map(sub, trace.fs, exact)))
        rms = _rms(errors)
        if not rms < math.inf:  # only then may an error be nan
            _abs_diffs(trace.fs, exact, xs)
        del trace, exact
        err = max(errors)
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
    that grows from a number to inf has order -inf, one that drops to 0 inf."""
    r = a / b if b else a * math.inf  # nan where both are 0, as where both are inf
    return math.log2(r) if r else -math.inf


def fit_ladder(reports) -> ConvergenceReport:
    """Fit empirical orders, the log2 ratio of the max errors of adjacent
    levels, to the reports of one error_ladder.  Only each level's h and max
    error are kept, and no report is held while the next level is built.
    DomainError where there is no report; ConvergenceError names the step
    sizes of two levels whose max errors give no order."""
    levels = tuple(map(attrgetter("method", "h", "max_error"), reports))
    if not levels:
        raise DomainError("need at least one ladder level")
    methods, hs, errs = zip(*levels)
    orders = tuple(map(_log2_ratio, errs[:-1], errs[1:]))
    for i, order in enumerate(orders):
        if math.isnan(order):
            raise ConvergenceError(f"{methods[0]}: max errors {errs[i]!r} at h = {hs[i]!r} "
                                   f"and {errs[i + 1]!r} at h = {hs[i + 1]!r} give no order")
    return ConvergenceReport(methods[0], hs, errs, orders, errs[-1] < ROUNDOFF_FLOOR)


def convergence_order(p, method: str, h0: float, levels: int) -> ConvergenceReport:
    """Fit empirical orders from a halving step-size ladder h0, h0/2, ...;
    the fit is partial when the round-off floor stops the ladder early."""
    return fit_ladder(error_ladder(p, method, h0, levels))


def _abs_diffs(values, others, xs) -> tuple:
    """|a - b| for the values of two routes at the points xs.  Where both
    overflow to the same infinity the difference is nan and has no
    trustworthy finite value: ConvergenceError names the first such x."""
    diffs = tuple(map(abs, map(sub, values, others)))
    if any(map(math.isnan, diffs)):
        x = next(x for x, d in zip(xs, diffs) if math.isnan(d))
        raise ConvergenceError(f"both routes overflow to the same infinity at x = {x!r}")
    return diffs


def _float_grid(name: str, x_grid) -> tuple:
    """The points of x_grid as floats; DomainError names the first that is
    nan, +-inf or beyond the float range."""
    xs = tuple(x_grid)
    _finite(name, *xs)
    return tuple(map(float, xs))


def series_error_curve(k: Kappa, orders, x_grid) -> SeriesErrorCurve:
    """|truncated decay series - exp_k(-x)| per order on the grid;
    ConvergenceError where both overflow to the same infinity."""
    from .series import decay_series_solution, evaluate_series

    orders = tuple(orders)
    if not orders:
        raise DomainError("need at least one order")
    xs = _float_grid("series_error_curve", x_grid)
    exact = [kappa_exp(k, -x) for x in xs]
    curves = []
    for n in orders:
        s = decay_series_solution(k, n)
        curves.append(_abs_diffs([evaluate_series(s, k, x) for x in xs], exact, xs))
    return SeriesErrorCurve(k.value, orders, xs, tuple(curves))


def asymptote_check(k: Kappa, x: float) -> float:
    """Tail ratio exp_k(-x) * (2|k|x)^(1/|k|); tends to 1 as x -> inf.  Taken
    as the exp of its log: at large x one factor underflows, the other
    overflows.  With t = |k|x the log is (log 2t - arcsinh t)/|k|, which is
    -log1p(1/(2t(t + hypot(1, t))))/|k|: no cancellation, which a tiny |k|
    would magnify past the float range, and never positive."""
    if k.value == 0.0:
        raise DomainError("asymptote_check needs kappa != 0")
    if not (_isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive, got {x!r}")
    kk = abs(k.value)
    t = kk * x
    d = 2.0 * t * (t + math.hypot(1.0, t))
    return math.exp(-math.log1p(1.0 / d) / kk) if d else 0.0


def picard_vs_series(k: Kappa, n: int, x_grid) -> PicardSeriesReport:
    """Compare Picard iterate n against the series solution: coefficientwise
    (both expanded in x through order n) and pointwise on the grid, where
    ConvergenceError marks a point at which both overflow to the same
    infinity."""
    from .series import (decay_series_solution, evaluate_series, picard_iterate,
                         picard_iterate_in_x)

    it = picard_iterate(k, n)
    s = decay_series_solution(k, n)
    px = picard_iterate_in_x(it, k, n).coefficients
    coeff_diff = max(abs(a - b) for a, b in zip(px, s.coefficients))
    xs = _float_grid("picard_vs_series", x_grid)
    diffs = _abs_diffs([evaluate_series(it, k, x) for x in xs],
                       [evaluate_series(s, k, x) for x in xs], xs)
    return PicardSeriesReport(n, coeff_diff, xs, diffs)
