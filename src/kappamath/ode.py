"""Deformed decay and logistic problems with analytic and numerical solvers.

The decay equation sqrt(1 + k^2 b^2 x^2) f'(x) + b f(x) = 0 (rate b > 0,
f(0) = f0) has the closed form f0 * exp_k(-b x).  Three analytic routes are
implemented (closed form, quadrature of the weight, coordinate substitution)
plus fixed-step Euler, two-step Adams-Bashforth, and classical RK4.  The
solvers and the harness take any problem that provides x_start, x_max,
initial_value, rhs(x, f) and exact(x), and solve it over [x_start, x_max].
rhs may be any callable attribute: a solve reads it once.
"""

import functools
import math
import sys

from .core import (_EXP_MAX, _EXP_MIN, Kappa, Record, _exp, _finite, _isfinite,
                   _scaled_arcsinh, adaptive_quadrature, differential_weight)
from .errors import ConvergenceError, DomainError

__all__ = [
    "MAX_POINTS",
    "DecayProblem",
    "LogisticProblem",
    "SolutionTrace",
    "closed_form_decay",
    "quadrature_decay",
    "substitution_decay",
    "residual_decay",
    "slope_field",
    "euler_solve",
    "ab2_solve",
    "rk4_solve",
    "SOLVERS",
    "analytic_trace",
    "logistic_closed_form",
    "logistic_residual",
]

# Most samples one grid may have, so that a step size or node count from
# outside cannot ask for unbounded work; checked before any list is built.
MAX_POINTS = 1_000_000

# Deepest halving ladder (h0 / 2**7 is already 128 times the work of h0), and
# so the size of the caches of grids and exact values that a ladder reads.
# Each keeps only results of fewer than MAX_POINTS // MAX_LEVELS points, fewer
# than MAX_POINTS in all; a larger one is computed once, where it is needed.
MAX_LEVELS = 8


class DecayProblem(Record):
    """Decay equation data: rhs G(x, f) = -beta * f / sqrt(1 + k^2 beta^2 x^2).

    beta = 1 recovers the plain deformed decay equation; the general weight
    carries beta inside the square root so the closed form stays exp_k(-beta x).
    """

    __slots__ = ("k", "beta", "f0", "x_max")

    def __init__(self, k: Kappa, beta: float = 1.0, f0: float = 1.0,
                 x_max: float = 5.0) -> None:
        if not (_isfinite(beta) and beta > 0.0):
            raise DomainError(f"beta must be positive, got {beta!r}")
        # rhs divides by hypot(1/beta, k x), which must stay finite for every
        # float k x: this holds for beta above about 5.3e-301
        if math.hypot(1.0 / beta, sys.float_info.max) == math.inf:
            raise DomainError(f"beta too small: hypot(1/beta, kappa x) "
                              f"overflows, got {beta!r}")
        if not (_isfinite(x_max) and x_max > 0.0):
            raise DomainError(f"x_max must be positive, got {x_max!r}")
        if not _isfinite(f0):
            raise DomainError(f"f0 must be finite, got {f0!r}")
        super().__init__(k, float(beta), f0, x_max)

    @property
    def x_start(self) -> float:
        return 0.0

    @property
    def initial_value(self) -> float:
        return self.f0

    def weight(self, x: float) -> float:
        return 1.0 / math.hypot(1.0, self.k.value * self.beta * x)

    def _slope(self):
        b = 1.0 / self.beta
        kv = self.k.value
        hypot = math.hypot

        def rhs(x: float, f: float) -> float:
            # beta * weight(x) as one quotient: no beta * f to overflow
            return -f / hypot(b, kv * x)
        return rhs

    # rhs(x, f), with 1/beta and kappa bound: read once per solve
    rhs = property(_slope)

    def _exact_grid(self, xs) -> tuple:
        # exact at each of the finite points xs, such as those of _grid
        f0 = self.f0
        if not f0:
            return (f0,) * len(xs)
        c = self.k.value
        beta = self.beta
        exp = math.exp
        bottom, top = _EXP_MIN, _EXP_MAX
        log_f0 = math.log(abs(f0))
        # past top exp(u) overflows, and below bottom it has lost bits, but
        # f0 exp(u) = +-exp(u + log|f0|) may be a normal float
        return tuple([f0 * exp(u) if bottom <= (u := _scaled_arcsinh(c, -(beta * x))) <= top
                      else math.copysign(_exp(u + log_f0), f0) for x in xs])

    def exact(self, x: float) -> float:
        """f0 * exp_k(-beta x), and its limits where beta x overflows from a
        finite x: 0 at x > 0 and +-inf at x < 0.  f0 = 0 gives the zero
        solution, also at an x < 0 where exp_k(-beta x) overflows.
        DomainError where x is nan, +-inf or past the float range."""
        _finite("closed_form_decay", x)
        return self._exact_grid((x,))[0]


class LogisticProblem(Record):
    """Logistic equation sqrt(1 + k^2 x^2) f' = f (1 - f) on [-x_max, x_max].

    f0 is the value at x = 0; the displayed closed form 1/(1 + exp_k(-x))
    corresponds to the default f0 = 1/2.  A stepper starts at exact(-x_max),
    and raises ConvergenceError where that start is below
    sys.float_info.min (past x_max of about 708.4 at k = 0 and f0 = 1/2):
    a subnormal start carries fewer than 53 bits, and an increment h f'
    below half the smallest subnormal rounds to 0.  The problem itself, its
    closed form and analytic_trace take any such x_max.
    """

    __slots__ = ("k", "f0", "x_max")

    def __init__(self, k: Kappa, f0: float = 0.5, x_max: float = 5.0) -> None:
        if not (_isfinite(f0) and 0.0 < f0 < 1.0):
            raise DomainError(f"f0 must lie in (0, 1), got {f0!r}")
        if not (_isfinite(x_max) and x_max > 0.0):
            raise DomainError(f"x_max must be positive, got {x_max!r}")
        super().__init__(k, f0, x_max)

    @property
    def x_start(self) -> float:
        return -self.x_max

    @property
    def initial_value(self) -> float:
        # Numerical traces start on the closed form at the left edge so the
        # comparison over the symmetric range is well-posed; one below the
        # normal range is refused, as the class docstring says.
        f = self.exact(-self.x_max)
        if f < sys.float_info.min:
            raise ConvergenceError(f"logistic start {f!r} at x = {-self.x_max!r} is below "
                                   f"the normal range: a trace from it would lose its bits")
        return f

    def weight(self, x: float) -> float:
        return differential_weight(self.k, x)

    def _slope(self):
        kv = self.k.value
        hypot = math.hypot

        def rhs(x: float, f: float) -> float:
            return f * (1.0 - f) * (1.0 / hypot(1.0, kv * x))
        return rhs

    # rhs(x, f), with kappa bound: read once per solve
    rhs = property(_slope)

    def _exact_grid(self, xs) -> tuple:
        # exact at each of the finite points xs, such as those of _grid
        c = self.k.value
        f0 = self.f0
        g = 1.0 - f0
        exp = math.exp
        bottom, top = _EXP_MIN, _EXP_MAX
        log_odds = math.log(f0 / g)
        # past top, g exp(u) > 2e292 > f0: the value is (f0 / g) exp(-u).
        # Below bottom exp(u) has lost bits, which a subnormal f0 brings into
        # view: the value is 1 / (1 + (g / f0) exp(u)), whose exponent
        # u - log(f0 / g) is below 37, since f0 >= 5e-324
        return tuple([f0 / (f0 + g * exp(u)) if bottom <= (u := _scaled_arcsinh(c, -x)) <= top
                      else exp(log_odds - u) if u > top else 1.0 / (1.0 + exp(u - log_odds))
                      for x in xs])

    def exact(self, x: float) -> float:
        """f0 / (f0 + (1 - f0) * exp_k(-x)); the default f0 = 1/2 gives the
        plain 1/(1 + exp_k(-x)).  Unlike 1/(1 + c exp_k(-x)) with
        c = (1 - f0)/f0, this stays finite for a subnormal f0.  DomainError
        where x is nan, +-inf or past the float range."""
        _finite("logistic_closed_form", x)
        return self._exact_grid((x,))[0]


class SolutionTrace(Record):
    """One solver run: uniformly spaced samples starting at the problem's
    initial point."""

    __slots__ = ("method", "h", "xs", "fs")


# f0 * exp_k(-beta x) as a function of (p, x): the method itself
closed_form_decay = DecayProblem.exact


def quadrature_decay(p: DecayProblem, x: float) -> float:
    """Separable route: f0 * exp(-int_0^x beta / sqrt(1+k^2 b^2 t^2) dt),
    with the integral done by adaptive Gauss-Kronrod 10/21 quadrature to
    the fixed absolute error 1e-12."""
    if not (0.0 <= x <= p.x_max):
        raise DomainError(f"x must lie in [0, {p.x_max}], got {x!r}")
    # beta * p.weight(t), bit for bit, in one frame per evaluation
    beta = p.beta
    c = p.k.value * beta
    hypot = math.hypot
    integral = adaptive_quadrature(lambda t: beta * (1.0 / hypot(1.0, c * t)), 0.0, x)
    return _times_exp(p.f0, -integral)


def substitution_decay(p: DecayProblem, x: float) -> float:
    """Coordinate route: solve f(u) = f0 exp(-u) in the deformed coordinate
    u = arcsinh(k b x)/(k b), then scale back."""
    if not (0.0 <= x <= p.x_max):
        raise DomainError(f"x must lie in [0, {p.x_max}], got {x!r}")
    u = _scaled_arcsinh(p.k.value * p.beta, x)
    return _times_exp(p.f0, -p.beta * u)


def _times_exp(f0: float, t: float) -> float:
    """f0 * exp(t) for t <= 0.  Below exp's normal range exp(t) has lost bits,
    which a large f0 brings into view, so there it is +-exp(t + log|f0|);
    f0 = 0 gives the zero solution."""
    if _EXP_MIN <= t or not f0:
        return f0 * math.exp(t)
    return math.copysign(math.exp(t + math.log(abs(f0))), f0)


def residual_decay(p: DecayProblem, f_val: float, dfdx: float, x: float) -> float:
    """Direct-substitution check sqrt(1+k^2 b^2 x^2) * f' + beta * f, zero
    exactly when (f_val, dfdx) satisfies the equation at x.  Taken as
    beta * (hypot(1/beta, k x) * f' + f), with the slope's hypot, which
    DecayProblem keeps finite: finite arguments give a number or +-inf."""
    _finite("residual_decay", f_val, dfdx, x)
    return p.beta * (math.hypot(1.0 / p.beta, p.k.value * x) * dfdx + f_val)


def slope_field(p, x_grid, f_grid) -> list[tuple[float, float, float]]:
    """Tangent slopes G(x, f) on the product grid, row-major: the outer loop
    runs over x_grid, the inner over f_grid.  The grid may have at most
    MAX_POINTS nodes."""
    xs = list(x_grid)
    fs = list(f_grid)
    if not xs or not fs:
        raise DomainError("slope_field needs nonempty grids")
    if len(xs) * len(fs) > MAX_POINTS:
        raise DomainError(f"slope_field grid must have at most {MAX_POINTS} "
                          f"nodes, got {len(xs)} * {len(fs)}")
    _finite("slope_field", *xs, *fs)
    rhs = p.rhs
    return [(x, f, rhs(x, f)) for x in xs for f in fs]


def _grid(p, h: float, min_steps: int = 1) -> tuple:
    """The samples x_start, x_start + h, ... up to x_max; a halving ladder
    and the methods of a comparison build each grid once."""
    x0 = p.x_start
    x1 = p.x_max
    # x0 is 0 or -x1, so wherever x1 - x0 is finite this count is exactly
    # (x1 - x0) / h; it stays finite where x1 - x0 overflows.  A nan or
    # infinite h, or an int h beyond the float range, counts nan.
    steps = x1 / h - x0 / h if h > 0.0 and _isfinite(h) else math.nan
    if not steps >= min_steps:
        raise DomainError(f"step size {h!r} invalid for [{x0!r}, {x1!r}]")
    steps += 1e-9
    if steps >= MAX_POINTS:  # floor(steps) + 1 samples
        raise DomainError(f"step size {h!r} gives more than {MAX_POINTS} "
                          f"grid points over [{x0!r}, {x1!r}]")
    n = int(steps)
    points = _points if n + 1 < MAX_POINTS // MAX_LEVELS else _points.__wrapped__
    return points(x0, x1, h, n)


# A start of -0.0 gives the same points as 0.0, and an int start or step the
# same points as the equal floats, so either may stand for the other in the key.
@functools.lru_cache(maxsize=MAX_LEVELS)
def _points(x0, x1, h, n: int) -> tuple:
    """The n + 1 floats x0, x0 + h, ..., x0 + n h, less a last inf."""
    x0, h = float(x0), float(h)
    if x1 - x0 < math.inf:
        xs = [x0 + i * h for i in range(n + 1)]
    else:
        # i * h overflows as well: place the points at half scale, where the
        # halving and the doubling are exact
        x0, h = 0.5 * x0, 0.5 * h
        xs = [2.0 * (x0 + i * h) for i in range(n + 1)]
    # the 1e-9 keeps a last point that rounds past x1; near the float maximum
    # that point overflows to inf, and is dropped.  The min_steps steps that
    # _grid requires end at or before x1, so they remain.
    if xs[-1] == math.inf:
        del xs[-1]
    return tuple(xs)


# The exact methods that their class's _exact_grid backs
_GRID_BACKED = (DecayProblem.exact, LogisticProblem.exact)


def _exact_at(p, xs) -> tuple:
    """p.exact at each of the finite points xs: the grid form where p's exact
    is one that an _exact_grid backs, else point by point, as for a user
    problem or a subclass that overrides exact."""
    if getattr(type(p), "exact", None) in _GRID_BACKED:
        return p._exact_grid(xs)
    return tuple(map(p.exact, xs))


def _exact_values(p, h: float, xs) -> tuple:
    """p.exact on the grid xs of step h.  A Record p, immutable with an == over
    type and fields, reads them from _exact_on where xs is small enough to
    keep; equal fields give the same values up to the sign of a zero, which
    no absolute error sees.  Any other p, or a grid too large to keep, is
    evaluated on xs itself, at every point."""
    if isinstance(p, Record) and len(xs) < MAX_POINTS // MAX_LEVELS:
        return _exact_on(p, h)
    return _exact_at(p, xs)


@functools.lru_cache(maxsize=MAX_LEVELS)
def _exact_on(p, h: float) -> tuple:
    """p.exact on a grid of step h small enough to keep.  The even points of a
    grid of 2n + 1 >= 5 points are the smaller grid of 2h, bit for bit, and
    reuse its values (on fewer, 2h may be an invalid step): a ladder evaluates
    each point of its finest grid once, and the other methods' ladders none."""
    xs = _grid(p, h)
    n = len(xs)
    if n < 5 or not n % 2:
        return _exact_at(p, xs)
    ex = [0.0] * n
    ex[::2] = _exact_on(p, 2 * h)
    # the grid of h read again, so that _points holds it as more recent than
    # the grid of 2h, which no finer level reads: a ladder of 8 levels then
    # builds each of its 9 grids once
    ex[1::2] = _exact_at(p, _grid(p, h)[1::2])
    return tuple(ex)


def _rk4_values(rhs, xs, f: float, h: float) -> list[float]:
    """Classical RK4 from f at xs[0] over the grid xs of spacing h."""
    hh = 0.5 * h
    fs = [f]
    append = fs.append
    for x in xs[:-1]:
        xm = x + hh
        k1 = rhs(x, f)
        k2 = rhs(xm, f + hh * k1)
        k3 = rhs(xm, f + hh * k2)
        k4 = rhs(x + h, f + h * k3)
        f = f + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        append(f)
    return fs


def _stepped(method: str, h: float, xs, fs) -> SolutionTrace:
    """The trace of a stepper, or ConvergenceError naming the first x whose
    value is nan, where a step's terms overflow with both signs.  Each update
    is f + h * (...), so a nan stays to the end: the last value decides."""
    if math.isnan(fs[-1]):
        x = next(x for x, f in zip(xs, fs) if math.isnan(f))
        raise ConvergenceError(f"{method}: the step to x = {x!r} overflows with both signs")
    return SolutionTrace(method, h, xs, tuple(fs))


def euler_solve(p, h: float) -> SolutionTrace:
    """Forward Euler: f_{n+1} = f_n + h G(x_n, f_n)."""
    xs = _grid(p, h)
    rhs = p.rhs
    f = p.initial_value
    fs = [f]
    append = fs.append
    for x in xs[:-1]:
        f = f + h * rhs(x, f)
        append(f)
    return _stepped("euler", h, xs, fs)


def ab2_solve(p, h: float) -> SolutionTrace:
    """Explicit two-step Adams-Bashforth, bootstrapped with one RK4 step:
    f_{n+1} = f_n + h (3 G_n - G_{n-1}) / 2."""
    xs = _grid(p, h, min_steps=2)
    rhs = p.rhs
    f = p.initial_value
    g_prev = rhs(xs[0], f)
    fs = _rk4_values(rhs, xs[:2], f, h)
    f = fs[1]
    append = fs.append
    for x in xs[1:-1]:
        g = rhs(x, f)
        f = f + h * (3.0 * g - g_prev) / 2.0
        append(f)
        g_prev = g
    return _stepped("ab2", h, xs, fs)


def rk4_solve(p, h: float) -> SolutionTrace:
    """Classical four-stage fourth-order Runge-Kutta."""
    xs = _grid(p, h)
    return _stepped("rk4", h, xs, _rk4_values(p.rhs, xs, p.initial_value, h))


SOLVERS = {"euler": euler_solve, "ab2": ab2_solve, "rk4": rk4_solve}


def analytic_trace(p, h: float) -> SolutionTrace:
    """Closed-form solution sampled on the same grid the steppers use."""
    xs = _grid(p, h)
    return SolutionTrace("analytic", h, xs, _exact_at(p, xs))


# f0 / (f0 + (1 - f0) * exp_k(-x)) as a function of (lp, x): the method itself
logistic_closed_form = LogisticProblem.exact


def logistic_residual(lp: LogisticProblem, x: float) -> float:
    """sqrt(1+k^2 x^2) f'(x) - f(x)(1 - f(x)) on the closed form, with the
    derivative taken analytically: with r = ((1 - f0)/f0) exp_k(-x),
    f = 1/(1 + r) and sqrt(1+k^2 x^2) f' = f q, q = r/(1 + r), the 1 - f of
    the quotient rule.  f and q come from r in the closed form's forms:
    f0/(f0 + e) and e/(f0 + e), e = (1 - f0) exp_k(-x), inside exp's normal
    range; from 1/r past it, where exp_k(-x) overflows; and from r in log
    space below it, where e has lost bits that a subnormal f0 brings into
    view.  So f is exact(x), and the residual, the rounding of f(1 - f)
    taken two ways, is within a few eps f of 0.  DomainError where x is
    nan, +-inf or past the float range."""
    _finite("logistic_residual", x)
    f0 = lp.f0
    g = 1.0 - f0
    u = _scaled_arcsinh(lp.k.value, -x)
    if _EXP_MIN <= u <= _EXP_MAX:
        e = g * math.exp(u)
        f, q = f0 / (f0 + e), e / (f0 + e)
    elif u > _EXP_MAX:
        s = math.exp(math.log(f0 / g) - u)
        f, q = s / (1.0 + s), 1.0 / (1.0 + s)
    else:
        r = math.exp(u - math.log(f0 / g))
        f, q = 1.0 / (1.0 + r), r / (1.0 + r)
    return f * q - f * (1.0 - f)
