"""Truncated formal power series and the series solutions of the decay ODE.

Series come in two coordinates: the raw variable x, and the deformed
coordinate u = arcsinh(k x)/k in which the decay equation becomes classical.
Picard iterates are exact polynomials in u, so they are built there in
integers scaled by n! and only converted to floats at the boundary.
Products and compositions multiply only the nonzero terms of the second
factor, listed once per call, so an odd inner series such as u(x) costs
half the multiply-adds of a dense one.  An exact zero adds nothing, even
to a term that has overflowed, so the ring raises ConvergenceError only
where a coefficient's terms overflow with both signs.
"""

import functools
import math
from collections.abc import Sequence

from .core import Kappa, Record, _finite, _isfinite, _scaled_arcsinh
from .errors import ConvergenceError, DomainError

__all__ = [
    "PowerSeries",
    "MAX_ORDER",
    "series_multiply",
    "series_compose",
    "series_truncate",
    "exp_kappa_taylor",
    "ln_kappa_shifted_taylor",
    "sqrt_weight_series",
    "decay_series_solution",
    "picard_iterate",
    "picard_iterate_in_x",
    "evaluate_series",
]

MAX_ORDER = 64


class PowerSeries(Record):
    """Truncated series sum_j c_j * v^j in the variable tag ("x" or "u")."""

    __slots__ = ("variable", "coefficients")

    def __init__(self, variable: str, coefficients: Sequence[float]) -> None:
        if variable not in ("x", "u"):
            raise DomainError(f"unknown series variable {variable!r}")
        coeffs = tuple(coefficients)
        if not coeffs or not all(map(_isfinite, coeffs)):
            raise DomainError("coefficients must be a nonempty finite list")
        super().__init__(variable, tuple(map(float, coeffs)))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def _check_order(order: int) -> None:
    if not (isinstance(order, int) and 0 <= order <= MAX_ORDER):
        raise DomainError(f"series order must be in [0, {MAX_ORDER}], got {order!r}")


def _floats(c: Sequence[float], order: int) -> list[float]:
    # the first order+1 finite coefficients as floats, so that a product of
    # two ints that leaves the float range is inf, as it is for floats
    return list(map(float, c[: order + 1]))


def series_truncate(c: Sequence[float], order: int) -> list[float]:
    """Pad or cut a coefficient list to exactly order+1 float entries."""
    _check_order(order)
    _finite("series_truncate", *c)
    c = _floats(c, order)
    return c + [0.0] * (order + 1 - len(c))


def _nonzero(b: list[float]) -> list[tuple[int, float]]:
    return [(k, bk) for k, bk in enumerate(b) if bk != 0.0]


def _cauchy(a: list[float], terms: list[tuple[int, float]], order: int) -> list[float]:
    # The product of a and b truncated at order, where terms is _nonzero(b).
    # An exact zero b_k adds nothing: a finite a_i * 0.0 is +-0.0, and a sum
    # that starts at +0.0 is never -0.0, so adding +-0.0 leaves it as it is;
    # and where a_i has overflowed, the true a_i * 0 is 0 all the same.
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        top = order - i
        for k, bk in terms:
            if k > top:
                break
            out[i + k] += ai * bk
    return out


def _trustworthy(coeffs: list[float]) -> list[float]:
    """coeffs, or ConvergenceError naming the first that is nan: from finite
    arguments, a coefficient whose terms overflow with both signs, or that
    is built from a running-power coefficient whose terms do."""
    for i, c in enumerate(coeffs):
        if math.isnan(c):
            raise ConvergenceError(f"series coefficient {i} overflows with both signs")
    return coeffs


def series_multiply(a: Sequence[float], b: Sequence[float], order: int) -> list[float]:
    """Cauchy product truncated at the given order; ConvergenceError where a
    coefficient's terms overflow with both signs."""
    _check_order(order)
    _finite("series_multiply", *a, *b)
    return _trustworthy(_cauchy(_floats(a, order), _nonzero(_floats(b, order)), order))


def series_compose(outer: Sequence[float], inner: Sequence[float], order: int) -> list[float]:
    """Composition outer(inner(v)) truncated at the given order.

    The inner series must have zero constant term, otherwise truncation
    would not commute with composition.  It is the sum of outer[j] * inner^j
    over the nonzero outer[j], with the power kept running.  Each step of
    the power multiplies its nonzero terms by the nonzero terms of the
    inner series, listed once, so its leading zeros and the inner series'
    zeros cost nothing, and an exact zero adds nothing even to a power
    term that has overflowed to inf.  ConvergenceError only where a
    coefficient's terms, or those of the power it is built from, overflow
    with both signs.
    """
    _check_order(order)
    _finite("series_compose", *outer, *inner)
    outer, inner = _floats(outer, order), _floats(inner, order)
    if inner and inner[0] != 0.0:
        raise DomainError("series_compose needs inner constant term 0")
    terms = _nonzero(inner)
    out = [0.0] * (order + 1)
    power = [1.0] + [0.0] * order
    for j, cj in enumerate(outer):
        if j:
            power = _cauchy(power, terms, order)
        if cj != 0.0:
            for i in range(j, order + 1):
                out[i] += cj * power[i]
    return _trustworthy(out)


def _parity_series(order: int, first: int, ratio) -> list[float]:
    # c_first = 1 and c_{first+2n} = c_{first+2n-2} * ratio(n), first 0 or 1;
    # the coefficients of the other parity are 0
    c = [0.0] * (order + 1)
    if order >= first:
        c[first] = 1.0
    term = 1.0
    for n in range(1, (order - first) // 2 + 1):
        term *= ratio(n)
        c[first + 2 * n] = term
    return c


def _coordinate_series(k: Kappa, order: int) -> list[float]:
    # Maclaurin coefficients of u(x) = arcsinh(k x)/k: only odd powers,
    # c_{2n+1} = (-1)^n (2n)! k^(2n) / (4^n (n!)^2 (2n+1)).
    k2 = k.value * k.value
    return _parity_series(order, 1,
                          lambda n: -k2 * (2 * n - 1) ** 2 / (2 * n * (2 * n + 1)))


def exp_kappa_taylor(k: Kappa, order: int) -> PowerSeries:
    """Maclaurin coefficients of the deformed exponential about 0.

    exp_k(x) = exp(u(x)) with u the coordinate series, so g = exp_k obeys
    g' = u' g, and equating powers of x gives the O(order^2) recurrence
        n g_n = sum_{j=1..n} j u_j g_{n-j},   g_0 = 1,
    whose weights j u_j are the coefficients of u'(x) = (1+k^2 x^2)^(-1/2)
    (only odd j are nonzero).  The first few coefficients are 1, 1, 1/2,
    (1-k^2)/3!, (1-4k^2)/4!, (1-k^2)(1-9k^2)/5!.
    """
    _check_order(order)
    du = [j * c for j, c in enumerate(_coordinate_series(k, order))]
    g = [0.0] * (order + 1)
    g[0] = 1.0
    for n in range(1, order + 1):
        # added left to right from 0.0: from Python 3.12 sum() compensates,
        # which would move last digits between Python versions
        total = 0.0
        for d, gj in zip(du[1 : n + 1 : 2], g[n - 1 :: -2]):
            total += d * gj
        g[n] = total / n
    return PowerSeries("x", tuple(g))


def ln_kappa_shifted_taylor(k: Kappa, order: int) -> PowerSeries:
    """Maclaurin coefficients of ln_k(1+x) about x = 0.

    Built by composing sinh(k t)/k with the classical ln(1+x) series.
    """
    _check_order(order)
    # sinh(k t)/k in t: odd coefficients k^(2n)/(2n+1)!
    k2 = k.value * k.value
    sinh_ratio = _parity_series(order, 1, lambda n: k2 / (2 * n * (2 * n + 1)))
    log1p = [0.0] + [(-1.0) ** (j + 1) / j for j in range(1, order + 1)]
    coeffs = series_compose(sinh_ratio, log1p, order)
    return PowerSeries("x", tuple(coeffs))


def sqrt_weight_series(k: Kappa, order: int) -> PowerSeries:
    """Binomial series of sqrt(1 + k^2 x^2); only even powers are nonzero."""
    _check_order(order)
    k2 = k.value * k.value
    # c_{2m} = C(1/2, m) k^(2m), from the ratio of consecutive binomials
    c = _parity_series(order, 0, lambda m: k2 * (0.5 - (m - 1)) / m)
    return PowerSeries("x", tuple(c))


def decay_series_solution(k: Kappa, order: int) -> PowerSeries:
    """Series solution of the deformed decay equation with f(0) = 1.

    Coefficients follow the recurrence obtained by equating powers of x in
    sqrt(1+k^2 x^2) f'(x) = -f(x) with the square root expanded binomially:
        (p+1) a_{p+1} = -a_p - sum_{m>=1} C(1/2, m) k^(2m) (p-2m+1) a_{p-2m+1}.
    The result coincides with the Maclaurin series of exp_k(-x).
    """
    _check_order(order)
    w = sqrt_weight_series(k, order).coefficients
    a = [0.0] * (order + 1)
    a[0] = 1.0
    for p in range(order):
        total = -a[p]
        for m in range(1, p // 2 + 1):
            j = p - 2 * m + 1
            total -= w[2 * m] * j * a[j]
        a[p + 1] = total / (p + 1)
    return PowerSeries("x", tuple(a))


def picard_iterate(k: Kappa, n: int) -> PowerSeries:
    """Iterate n of Picard's scheme for the decay equation, as a series in
    u = arcsinh(k x)/k whose coefficient of u^j is (-1)^j/j! for j <= n.

    In u the equation is classical (df/du = -f, f = 1 at u = 0), so each
    iterate is the polynomial 1 - integral of the previous one,
    f_{m+1}(u) = 1 - int_0^u f_m(t) dt, computed exactly in integers scaled
    by N = n!.  Every division by j + 1 is exact because (j + 1)! divides n!,
    and c / N rounds each coefficient once at the end.  The iterate is the
    same for every k, and immutable, so it is built once per n and then
    returned from a functools.cache of at most 21 entries; n is checked
    first, since 2.0 == 2 would find the cached iterate for 2.
    """
    if not (isinstance(n, int) and 0 <= n <= 20):
        raise DomainError(f"picard index must be in [0, 20], got {n!r}")
    return _picard(n)


@functools.cache
def _picard(n: int) -> PowerSeries:
    scale = math.factorial(n)
    coeffs = [scale]
    for _ in range(n):
        coeffs = [scale] + [-c // (j + 1) for j, c in enumerate(coeffs)]
    return PowerSeries("u", [c / scale for c in coeffs])


def picard_iterate_in_x(it: PowerSeries, k: Kappa, order: int) -> PowerSeries:
    """Maclaurin expansion in x of a Picard iterate through the given order
    (compose it with u(x))."""
    _check_order(order)
    if it.variable != "u":
        raise DomainError(f"need a series in u, got one in {it.variable!r}")
    coeffs = series_compose(it.coefficients, _coordinate_series(k, order), order)
    return PowerSeries("x", tuple(coeffs))


def evaluate_series(s: PowerSeries, k: Kappa, x: float) -> float:
    """Horner evaluation; series in the u-coordinate map x -> u first."""
    if not _isfinite(x):
        raise DomainError(f"evaluate_series needs finite x, got {x!r}")
    t = _scaled_arcsinh(k.value, x) if s.variable == "u" else x
    acc = 0.0
    for c in reversed(s.coefficients):
        acc = acc * t + c
    return acc
