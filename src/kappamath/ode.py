"""Deformed decay and logistic problems with analytic and numerical solvers.

The decay equation sqrt(1 + k^2 b^2 x^2) f'(x) + b f(x) = 0 (rate b > 0,
f(0) = f0) has the closed form f0 * exp_k(-b x).  Three analytic routes are
implemented (closed form, quadrature of the weight, coordinate substitution)
plus fixed-step Euler, two-step Adams-Bashforth, and classical RK4.
"""

from __future__ import annotations

import math
import sys

from .core import Kappa, Record, adaptive_quadrature, kappa_exp, scaled_arcsinh
from .errors import DomainError

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


class DecayProblem(Record):
    """Decay equation data: rhs G(x, f) = -beta * f / sqrt(1 + k^2 beta^2 x^2).

    beta = 1 recovers the plain deformed decay equation; the general weight
    carries beta inside the square root so the closed form stays exp_k(-beta x).
    """

    __slots__ = ("k", "beta", "f0", "x_max")

    def __init__(self, k: Kappa, beta: float = 1.0, f0: float = 1.0,
                 x_max: float = 5.0) -> None:
        if not (math.isfinite(beta) and beta > 0.0):
            raise DomainError(f"beta must be positive, got {beta!r}")
        # rhs divides by hypot(1/beta, k x), which must stay finite for every
        # float k x: this holds for beta above about 5.3e-301
        if math.hypot(1.0 / beta, sys.float_info.max) == math.inf:
            raise DomainError(f"beta too small: hypot(1/beta, kappa x) "
                              f"overflows, got {beta!r}")
        if not (math.isfinite(x_max) and x_max > 0.0):
            raise DomainError(f"x_max must be positive, got {x_max!r}")
        if not math.isfinite(f0):
            raise DomainError(f"f0 must be finite, got {f0!r}")
        super().__init__(k, beta, f0, x_max)

    @property
    def x_start(self) -> float:
        return 0.0

    @property
    def x_end(self) -> float:
        return self.x_max

    @property
    def initial_value(self) -> float:
        return self.f0

    def weight(self, x: float) -> float:
        return 1.0 / math.hypot(1.0, self.k.value * self.beta * x)

    def rhs(self, x: float, f: float) -> float:
        # beta * weight(x) as one quotient: no beta * f to overflow
        return -f / math.hypot(1.0 / self.beta, self.k.value * x)

    def exact(self, x: float) -> float:
        return closed_form_decay(self, x)


class LogisticProblem(Record):
    """Logistic equation sqrt(1 + k^2 x^2) f' = f (1 - f) on [-x_max, x_max].

    f0 is the value at x = 0; the displayed closed form 1/(1 + exp_k(-x))
    corresponds to the default f0 = 1/2.
    """

    __slots__ = ("k", "f0", "x_max")

    def __init__(self, k: Kappa, f0: float = 0.5, x_max: float = 5.0) -> None:
        if not (math.isfinite(f0) and 0.0 < f0 < 1.0):
            raise DomainError(f"f0 must lie in (0, 1), got {f0!r}")
        if not (math.isfinite(x_max) and x_max > 0.0):
            raise DomainError(f"x_max must be positive, got {x_max!r}")
        super().__init__(k, f0, x_max)

    @property
    def x_start(self) -> float:
        return -self.x_max

    @property
    def x_end(self) -> float:
        return self.x_max

    @property
    def initial_value(self) -> float:
        # Numerical traces start on the closed form at the left edge so the
        # comparison over the symmetric range is well-posed.
        return logistic_closed_form(self, -self.x_max)

    def weight(self, x: float) -> float:
        return 1.0 / math.hypot(1.0, self.k.value * x)

    def rhs(self, x: float, f: float) -> float:
        return f * (1.0 - f) * (1.0 / math.hypot(1.0, self.k.value * x))

    def exact(self, x: float) -> float:
        return logistic_closed_form(self, x)


class SolutionTrace(Record):
    """One solver run: uniformly spaced samples starting at the problem's
    initial point."""

    __slots__ = ("method", "h", "xs", "fs")

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.fs))


def closed_form_decay(p: DecayProblem, x: float) -> float:
    """f0 * exp_k(-beta x), and its limit 0 where beta x overflows to inf."""
    try:
        return p.f0 * kappa_exp(p.k, -p.beta * x)
    except DomainError:
        if p.beta * x != math.inf:
            raise
        return p.f0 * 0.0


def quadrature_decay(p: DecayProblem, x: float) -> float:
    """Separable route: f0 * exp(-int_0^x beta / sqrt(1+k^2 b^2 t^2) dt),
    with the integral done by adaptive Gauss-Kronrod 7/15 quadrature to
    the fixed absolute error 1e-12."""
    if not (0.0 <= x <= p.x_max):
        raise DomainError(f"x must lie in [0, {p.x_max}], got {x!r}")
    integral = adaptive_quadrature(lambda t: p.beta * p.weight(t), 0.0, x)
    return p.f0 * math.exp(-integral)


def substitution_decay(p: DecayProblem, x: float) -> float:
    """Coordinate route: solve f(u) = f0 exp(-u) in the deformed coordinate
    u = arcsinh(k b x)/(k b), then scale back."""
    if not (0.0 <= x <= p.x_max):
        raise DomainError(f"x must lie in [0, {p.x_max}], got {x!r}")
    u = scaled_arcsinh(p.k.value * p.beta, x)
    return p.f0 * math.exp(-p.beta * u)


def residual_decay(p: DecayProblem, f_val: float, dfdx: float, x: float) -> float:
    """Direct-substitution check: sqrt(1+k^2 b^2 x^2) * f' + beta * f.

    Zero exactly when (f_val, dfdx) satisfies the equation at x.
    """
    return dfdx / p.weight(x) + p.beta * f_val


def slope_field(p, x_grid, f_grid) -> list[tuple[float, float, float]]:
    """Tangent slopes G(x, f) on the product grid, row-major: the outer loop
    runs over x_grid, the inner over f_grid."""
    xs = list(x_grid)
    fs = list(f_grid)
    if not xs or not fs:
        raise DomainError("slope_field needs nonempty grids")
    return [(x, f, p.rhs(x, f)) for x in xs for f in fs]


def _grid(p, h: float, min_steps: int = 1) -> list[float]:
    x0 = p.x_start
    x1 = p.x_end
    # x0 is 0 or -x1, so wherever x1 - x0 is finite this count is exactly
    # (x1 - x0) / h; it stays finite where x1 - x0 overflows
    steps = x1 / h - x0 / h if h > 0.0 else math.nan
    if not steps >= min_steps:  # also refuses a nan or infinite h
        raise DomainError(f"step size {h!r} invalid for [{x0!r}, {x1!r}]")
    steps += 1e-9
    if steps >= MAX_POINTS:  # floor(steps) + 1 samples
        raise DomainError(f"step size {h!r} gives more than {MAX_POINTS} "
                          f"grid points over [{x0!r}, {x1!r}]")
    n = int(math.floor(steps))
    if x1 - x0 < math.inf:
        xs = [x0 + i * h for i in range(n + 1)]
    else:
        # i * h overflows as well: place the points at half scale, where the
        # halving and the doubling are exact
        x0, h = 0.5 * x0, 0.5 * h
        xs = [2.0 * (x0 + i * h) for i in range(n + 1)]
    # the 1e-9 keeps a last point that rounds past x1; near the float maximum
    # that point overflows to inf, and is dropped.  The first min_steps steps
    # end at or before x1, so they remain.
    if xs[-1] == math.inf:
        del xs[-1]
    return xs


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
    return SolutionTrace("euler", h, tuple(xs), tuple(fs))


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
    return SolutionTrace("ab2", h, tuple(xs), tuple(fs))


def rk4_solve(p, h: float) -> SolutionTrace:
    """Classical four-stage fourth-order Runge-Kutta."""
    xs = _grid(p, h)
    fs = _rk4_values(p.rhs, xs, p.initial_value, h)
    return SolutionTrace("rk4", h, tuple(xs), tuple(fs))


SOLVERS = {"euler": euler_solve, "ab2": ab2_solve, "rk4": rk4_solve}


def analytic_trace(p, h: float) -> SolutionTrace:
    """Closed-form solution sampled on the same grid the steppers use."""
    xs = _grid(p, h)
    return SolutionTrace("analytic", h, tuple(xs), tuple(p.exact(x) for x in xs))


def logistic_closed_form(lp: LogisticProblem, x: float) -> float:
    """f0 / (f0 + (1 - f0) * exp_k(-x)); the default f0 = 1/2 gives the
    plain 1/(1 + exp_k(-x)).  Unlike 1/(1 + c exp_k(-x)) with
    c = (1 - f0)/f0, this stays finite for a subnormal f0."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return lp.f0 / (lp.f0 + (1.0 - lp.f0) * kappa_exp(lp.k, -x))


def logistic_residual(lp: LogisticProblem, x: float) -> float:
    """sqrt(1+k^2 x^2) f'(x) - f(x)(1 - f(x)) on the closed form, with the
    derivative taken analytically (quotient rule)."""
    e = (1.0 - lp.f0) * kappa_exp(lp.k, -x)
    w = lp.weight(x)
    f = lp.f0 / (lp.f0 + e)
    dfdx = w * f * e / (lp.f0 + e)  # d/dx exp_k(-x) = -w * exp_k(-x)
    return dfdx / w - f * (1.0 - f)
