"""Kaniadakis kappa-deformed special functions, algebra, and calculus.

The deformed exponential exp_k(x) = (sqrt(1+k^2 x^2) + k x)^(1/k) and its
inverse logarithm ln_k(x) = (x^k - x^(-k))/(2k) interpolate between the
classical exp/ln (k -> 0) and power-law tails (|x| -> inf).  Everything here
is a pure function of its arguments; k = 0 is handled as an exact special
case rather than by small-k division.
"""

import math
import operator
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
    "adaptive_quadrature",
]


class Record:
    """Immutable value type whose fields are its classes' __slots__.

    The fields are decided once, when a subclass is made: its base's
    fields, then the slots it names itself, so a subclass with
    __slots__ = (), or with none, keeps its base's fields.  With them are
    fixed each field's slot setter and _values, an operator.attrgetter over
    the fields.  __init__ sets each field once, from exactly one value per
    field; ==, hash and repr go field by field, assignment raises
    AttributeError, and pickle and copy rebuild the object through
    __init__, so a validating subclass checks its values again.
    """

    __slots__ = ()
    _fields = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        # one string is one name, as Python reads it
        names = (slots,) if isinstance(slots, str) else tuple(slots)
        cls._fields += names
        cls._setters += tuple(cls.__dict__[name].__set__ for name in names)
        cls._values = _values_getter(cls._fields)

    def __init__(self, *values) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} "
                            f"values, got {len(values)}")
        for setter, v in zip(setters, values):
            setter(self, v)

    def _values(self) -> tuple:
        return ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _values_getter(fields: tuple):
    """The method that returns a record's field values as a tuple, read by one
    operator.attrgetter, which gives a bare value for a single name."""
    if not fields:
        return Record._values
    get = operator.attrgetter(*fields)
    if len(fields) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


class Kappa(Record):
    """Deformation parameter, restricted to the open interval (-1, 1)."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if not _isfinite(value) or abs(value) >= 1.0:
            raise DomainError(f"kappa out of range: need |kappa| < 1, got {value!r}")
        super().__init__(float(value))


def _isfinite(v: float, w: float = 0.0, *more: float) -> bool:
    """math.isfinite of each value, and False for a number beyond the float
    range, such as the int 10**400, for which math.isfinite raises
    OverflowError.  The values past the second are checked in one C-level
    pass; one or two values are checked alone, which costs less than that
    pass (w defaults to 0.0, which is finite)."""
    try:
        return (math.isfinite(v) and math.isfinite(w)
                and (not more or all(map(math.isfinite, more))))
    except OverflowError:
        return False


def _finite(name: str, *values: float) -> None:
    """DomainError naming the first nan, +-inf or number beyond the float
    range among a call's arguments."""
    if values and not _isfinite(*values):
        v = next(v for v in values if not _isfinite(v))
        raise DomainError(f"{name} needs finite arguments, got {v!r}")


# log of the float maximum, rounded down: math.exp overflows exactly past it
_EXP_MAX = 709.782712893384
# log of the smallest normal float, rounded up: math.exp is normal exactly
# from it on, and below it has lost bits or is 0
_EXP_MIN = -708.3964185322641


def _exp(u: float) -> float:
    """math.exp, and inf, its correctly rounded value, where that overflows."""
    return math.inf if u > _EXP_MAX else math.exp(u)


def _scaled_arcsinh(c: float, x: float) -> float:
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
    """sinh(c*x)/c, extended to x at c = 0, and +-inf with the sign of x, its
    correctly rounded value, where sinh overflows.  sinh is cancellation-free,
    but the series keeps subnormal c out of the division."""
    if c == 0.0:
        return x
    z = c * x
    if abs(z) < 1e-4:
        z2 = z * z
        return x * (1.0 + z2 / 6.0 * (1.0 + z2 / 20.0))
    try:
        return math.sinh(z) / c
    except OverflowError:
        return math.copysign(math.inf, x)


def kappa_exp(k: Kappa, x: float) -> float:
    """Deformed exponential, evaluated as exp(arcsinh(k*x)/k).

    The exponent form avoids the catastrophic cancellation the direct power
    form suffers for large negative k*x.  Overflow for extreme positive x is
    reported as +inf rather than raised.
    """
    if not _isfinite(x):
        raise DomainError(f"kappa_exp needs finite x, got {x!r}")
    return _exp(_scaled_arcsinh(k.value, x))


def kappa_ln(k: Kappa, x: float) -> float:
    """Deformed logarithm, inverse of kappa_exp; requires x > 0.

    Computed as sinh(k*ln x)/k, which equals (x^k - x^(-k))/(2k) but is
    stable near x = 1; -inf where the sinh overflows (x = 5e-324 at k = 0.99).
    """
    if not (_isfinite(x) and x > 0.0):
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
    _finite("kappa_sum", x, y)
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
    inner 1/k makes the identity element sinh(k)/k; +-inf where the sinh
    overflows.
    """
    _finite("kappa_product", x, y)
    kv = k.value
    return _scaled_sinh(kv, _scaled_arcsinh(kv, x) * _scaled_arcsinh(kv, y))


def kappa_product_identity(k: Kappa) -> float:
    """Identity element of the deformed product: sinh(k)/k (1 at k = 0)."""
    return _scaled_sinh(k.value, 1.0)


def to_kappa_number(k: Kappa, x: float) -> float:
    """Coordinate map x -> arcsinh(k x)/k; identity at k = 0."""
    _finite("to_kappa_number", x)
    return _scaled_arcsinh(k.value, x)


def from_kappa_number(k: Kappa, u: float) -> float:
    """Inverse coordinate map u -> sinh(k u)/k, +-inf where it overflows;
    identity at k = 0."""
    _finite("from_kappa_number", u)
    return _scaled_sinh(k.value, u)


def differential_weight(k: Kappa, x: float) -> float:
    """Jacobian of the coordinate map: 1/sqrt(1 + k^2 x^2), in (0, 1]."""
    _finite("differential_weight", x)
    return 1.0 / math.hypot(1.0, k.value * x)


# Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK qk21): the 21 Kronrod nodes
# are the 10 Gauss-Legendre nodes plus the centre and 10 interleaved ones, so
# one panel of 21 evaluations yields both estimates.  The rule is symmetric:
# (node, Kronrod weight, Gauss weight) at the positive Gauss nodes, (node,
# Kronrod weight) at the positive Kronrod-only nodes, and the centre's
# Kronrod weight; the centre is no Gauss node.
_GK21_GAUSS = (
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657409),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651748))
_GK21_KRONROD = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717))
_GK21_CENTRE = 0.149445554002916905664936468389821


# Absolute error target and integrand-evaluation budget of every quadrature.
QUAD_TOL = 1e-12
QUAD_MAX_EVALS = 1_000_000


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod 10/21 quadrature of f over [a, b] to absolute
    error QUAD_TOL.

    A panel is accepted when |K21 - G10| is within its share of QUAD_TOL;
    otherwise it is halved and each half gets half the tolerance.  Raises
    ConvergenceError if the next panel would take the integrand evaluations
    past QUAD_MAX_EVALS, if a rejected panel's Kronrod sum is not finite
    (a nan or infinite integrand, or a sum that overflows), or if a panel
    can no longer be halved in floating point.
    """
    if not (_isfinite(a) and _isfinite(b) and a <= b):
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
        evals += 21
        if evals > QUAD_MAX_EVALS:
            raise ConvergenceError(
                f"quadrature budget of {QUAD_MAX_EVALS} evaluations exhausted")
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        kronrod = _GK21_CENTRE * f(centre)
        gauss = 0.0
        for node, wk, wg in _GK21_GAUSS:
            dx = half * node
            pair = f(centre - dx) + f(centre + dx)
            kronrod += wk * pair
            gauss += wg * pair
        for node, wk in _GK21_KRONROD:
            dx = half * node
            kronrod += wk * (f(centre - dx) + f(centre + dx))
        kronrod *= half
        gauss *= half
        if abs(kronrod - gauss) <= eps:
            total += kronrod
        # a nan or infinite sum would fail the test on every half as well:
        # decided here, not by halving down to the smallest panel
        elif not math.isfinite(kronrod):
            raise ConvergenceError(
                f"quadrature panel [{lo!r}, {hi!r}] has the non-finite "
                f"Kronrod sum {kronrod!r}")
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
    # differential_weight without its argument check: every node is finite
    kv = k.value
    return adaptive_quadrature(lambda x: f(x) * (1.0 / math.hypot(1.0, kv * x)), a, b)
