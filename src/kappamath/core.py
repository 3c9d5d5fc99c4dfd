"""Kaniadakis kappa-deformed special functions, algebra, and calculus.

The deformed exponential exp_k(x) = (sqrt(1+k^2 x^2) + k x)^(1/k) and its
inverse logarithm ln_k(x) = (x^k - x^(-k))/(2k) interpolate between the
classical exp/ln (k -> 0) and power-law tails (|x| -> inf).  Everything here
is a pure function of its arguments; k = 0 is handled as an exact special
case rather than by small-k division.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import ConvergenceError, DomainError

__all__ = [
    "Kappa",
    "kappa_exp",
    "kappa_ln",
    "kappa_sum",
    "kappa_product",
    "kappa_product_identity",
    "to_kappa_number",
    "from_kappa_number",
    "differential_weight",
    "kappa_integral",
    "scaled_arcsinh",
    "adaptive_quadrature",
]


class Record:
    """Immutable value type whose fields are the subclass's __slots__.

    __init__ sets each field once, from exactly one value per slot; ==,
    hash and repr go field by field, assignment raises AttributeError, and
    pickle and copy rebuild the object through __init__, so a validating
    subclass checks its values again.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"values, got {len(values)}")
        for name, v in zip(names, values):
            object.__setattr__(self, name, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Kappa(Record):
    """Deformation parameter, restricted to the open interval (-1, 1)."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if not math.isfinite(value) or abs(value) >= 1.0:
            raise DomainError(f"kappa out of range: need |kappa| < 1, got {value!r}")
        super().__init__(float(value))

    @property
    def is_classical(self) -> bool:
        return self.value == 0.0


def scaled_arcsinh(c: float, x: float) -> float:
    """arcsinh(c*x)/c, continuously extended to x at c = 0.

    For |z| < 1e-4, z = c*x, the series x (1 - z^2/6 + 3 z^4/40) is used,
    as in the sinh map, so a c*x that underflows still gives x.
    """
    if c == 0.0:
        return x
    z = c * x
    if abs(z) < 1e-4:
        z2 = z * z
        return x * (1.0 - z2 / 6.0 * (1.0 - 0.45 * z2))
    return math.asinh(z) / c


def _scaled_sinh(c: float, x: float) -> float:
    # sinh(c*x)/c, extended to x at c = 0; sinh is cancellation-free, but the
    # series keeps subnormal c out of the division.
    if c == 0.0:
        return x
    z = c * x
    if abs(z) < 1e-4:
        z2 = z * z
        return x * (1.0 + z2 / 6.0 * (1.0 + z2 / 20.0))
    return math.sinh(z) / c


def kappa_exp(k: Kappa, x: float) -> float:
    """Deformed exponential, evaluated as exp(arcsinh(k*x)/k).

    The exponent form avoids the catastrophic cancellation the direct power
    form suffers for large negative k*x.  Overflow for extreme positive x is
    reported as +inf rather than raised.
    """
    if not math.isfinite(x):
        raise DomainError(f"kappa_exp needs finite x, got {x!r}")
    try:
        return math.exp(scaled_arcsinh(k.value, x))
    except OverflowError:
        return math.inf


def kappa_ln(k: Kappa, x: float) -> float:
    """Deformed logarithm, inverse of kappa_exp; requires x > 0.

    Computed as sinh(k*ln x)/k, which equals (x^k - x^(-k))/(2k) but is
    stable near x = 1.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"kappa_ln needs x > 0, got {x!r}")
    return _scaled_sinh(k.value, math.log(x))


def kappa_sum(k: Kappa, x: float, y: float) -> float:
    """Group operation x (+) y = x*sqrt(1+k^2 y^2) + y*sqrt(1+k^2 x^2).

    Where x and y have opposite signs the two terms cancel, so the equal
    (x + y)(x - y)/(x a - y b), a and b the two square roots, is used: both
    terms of its denominator have one sign.  x - y and the denominator are
    scaled by 0.5/max(|x|, |y|), so nothing overflows, and k = 0 gives
    x + y exactly.
    """
    kv = k.value
    a = math.hypot(1.0, kv * y)
    b = math.hypot(1.0, kv * x)
    # where x * y underflows to 0, |x| and |y| are either far apart or both
    # below 1e-161, where a and b round to 1: the direct form is then x + y
    if x * y < 0.0:
        s = 0.5 / max(abs(x), abs(y))
        sx, sy = x * s, y * s
        return (x + y) * ((sx - sy) / (sx * a - sy * b))
    return x * a + y * b


def kappa_product(k: Kappa, x: float, y: float) -> float:
    """Group operation x (x) y = (1/k) sinh((1/k) arcsinh(k x) arcsinh(k y)).

    Computed as the ordinary product of the kappa-numbers of x and y mapped
    back, so k = 0 gives x*y and tiny k loses nothing to underflow.  The
    inner 1/k makes the identity element sinh(k)/k.  Overflow of the sinh is
    reported as an inf with the sign of x*y rather than raised.
    """
    kv = k.value
    uv = scaled_arcsinh(kv, x) * scaled_arcsinh(kv, y)
    try:
        return _scaled_sinh(kv, uv)
    except OverflowError:
        return math.copysign(math.inf, uv)


def kappa_product_identity(k: Kappa) -> float:
    """Identity element of the deformed product: sinh(k)/k (1 at k = 0)."""
    return _scaled_sinh(k.value, 1.0)


def to_kappa_number(k: Kappa, x: float) -> float:
    """Coordinate map x -> arcsinh(k x)/k; identity at k = 0."""
    return scaled_arcsinh(k.value, x)


def from_kappa_number(k: Kappa, u: float) -> float:
    """Inverse coordinate map u -> sinh(k u)/k; identity at k = 0."""
    return _scaled_sinh(k.value, u)


def differential_weight(k: Kappa, x: float) -> float:
    """Jacobian of the coordinate map: 1/sqrt(1 + k^2 x^2), in (0, 1]."""
    return 1.0 / math.hypot(1.0, k.value * x)


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): the 15 Kronrod nodes
# are the 7 Gauss-Legendre nodes (odd positions) plus 8 interleaved ones, so
# one panel of 15 evaluations yields both estimates.
_GK15_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0)
_GK15_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_G7_WEIGHTS = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


# Absolute error target and integrand-evaluation budget of every quadrature.
QUAD_TOL = 1e-12
QUAD_MAX_EVALS = 1_000_000


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod 7/15 quadrature of f over [a, b] to absolute
    error QUAD_TOL.

    A panel is accepted when |K15 - G7| is within its share of QUAD_TOL;
    otherwise it is halved and each half gets half the tolerance.  Raises
    ConvergenceError if the next panel would take the integrand evaluations
    past QUAD_MAX_EVALS, or if a panel can no longer be halved in floating
    point.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    if a == b:
        return 0.0

    evals = 0
    total = 0.0
    # Depth-first over (lo, hi, eps), left half first, so the panels are
    # summed in order from a to b and the result does not depend on the
    # recursion limit.
    pending = [(a, b, QUAD_TOL)]
    while pending:
        lo, hi, eps = pending.pop()
        evals += 15
        if evals > QUAD_MAX_EVALS:
            raise ConvergenceError(
                f"quadrature budget of {QUAD_MAX_EVALS} evaluations exhausted")
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fc = f(centre)
        kronrod = _GK15_WEIGHTS[7] * fc
        gauss = _G7_WEIGHTS[3] * fc
        for j in range(7):
            dx = half * _GK15_NODES[j]
            pair = f(centre - dx) + f(centre + dx)
            kronrod += _GK15_WEIGHTS[j] * pair
            if j % 2:
                gauss += _G7_WEIGHTS[j // 2] * pair
        kronrod *= half
        gauss *= half
        if abs(kronrod - gauss) <= eps:
            total += kronrod
        elif lo < centre < hi:
            pending.append((centre, hi, 0.5 * eps))
            pending.append((lo, centre, 0.5 * eps))
        else:
            raise ConvergenceError(
                f"quadrature cannot split [{lo!r}, {hi!r}] to reach tol {QUAD_TOL!r}")
    return total


def kappa_integral(k: Kappa, f: Callable[[float], float], a: float, b: float) -> float:
    """Deformed integral of f over [a, b]: the integrand is weighted by
    1/sqrt(1 + k^2 x^2) and integrated by adaptive_quadrature."""
    return adaptive_quadrature(lambda x: f(x) * differential_weight(k, x), a, b)
