import copy
import importlib
import itertools
import math
import pickle
import random
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kappamath
from kappamath import (
    ConvergenceError,
    DecayProblem,
    DomainError,
    ErrorReport,
    FloorError,
    Kappa,
    LogisticProblem,
    PowerSeries,
    adaptive_quadrature,
    analytic_trace,
    asymptote_check,
    convergence_order,
    error_ladder,
    error_table,
    exp_kappa_taylor,
    differential_weight,
    from_kappa_number,
    kappa_exp,
    kappa_integral,
    kappa_ln,
    kappa_product,
    kappa_product_identity,
    kappa_sum,
    picard_vs_series,
    rk4_solve,
    series_error_curve,
    to_kappa_number,
)
import kappamath
from kappamath import core

# High-precision reference values, frozen from 40-digit mpmath evaluation of
# the defining closed forms.
KEXP_HALF_AT_1 = 2.6180339887498948482
KLN_HALF_AT_E = 1.0421906109874947232
KSUM_HALF_1_1 = 2.2360679774997896964
KPROD_HALF_1_1 = 0.95972829134738505642
ARCSINH_09_OVER_09 = 0.89874103961420273612

KAPPAS = [0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9]


# subclasses of the problem records with an empty __slots__ of their own,
# and their twins with none; at module level so that pickle finds them
class SlottedDecay(DecayProblem):
    __slots__ = ()


class PlainDecay(DecayProblem):
    pass


class SlottedLogistic(LogisticProblem):
    __slots__ = ()


class PlainLogistic(LogisticProblem):
    pass


class Point(core.Record):
    __slots__ = ("x",)


class Point3(Point):
    __slots__ = ("y", "z")


class Named(core.Record):
    # one string is one slot name, as Python reads it
    __slots__ = "value"


def test_kappa_accepts_open_interval():
    assert Kappa(0.75).value == 0.75
    assert Kappa(0.0).value == 0.0
    assert Kappa(-0.999).value == -0.999


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, math.inf, math.nan])
def test_kappa_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        Kappa(bad)


def test_record_types_are_immutable_values():
    k = Kappa(0.5)
    p = DecayProblem(k, beta=2.0, x_max=1.0)
    records = [k, p, LogisticProblem(k, f0=0.25), exp_kappa_taylor(k, 4),
               rk4_solve(p, 0.5), error_table(p, ["euler"], 0.5)[0],
               convergence_order(p, "rk4", 0.5, 2),
               series_error_curve(k, [2, 4], [0.5, 1.0]), picard_vs_series(k, 3, [0.5])]
    assert sorted(type(r).__name__ for r in records) == [
        "ConvergenceReport", "DecayProblem", "ErrorReport", "Kappa", "LogisticProblem",
        "PicardSeriesReport", "PowerSeries", "SeriesErrorCurve", "SolutionTrace"]
    for r in records:
        for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r) and twin == r and twin is not r
        fields = r.__slots__
        assert r != tuple(getattr(r, n) for n in fields)
        assert repr(r).startswith(f"{type(r).__name__}({fields[0]}=")
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, fields[0])
        assert hash(copy.deepcopy(r)) == hash(r)
    assert repr(k) == "Kappa(value=0.5)"
    assert repr(PowerSeries("u", [1, -1])) == "PowerSeries(variable='u', coefficients=(1.0, -1.0))"
    same = DecayProblem(Kappa(0.5), 2.0, 1.0, 1.0)
    assert same == p and hash(same) == hash(p) and same is not p
    assert p != DecayProblem(k, beta=3.0, x_max=1.0) and p != LogisticProblem(k)
    assert len({Kappa(0.5), Kappa(0.5), Kappa(-0.5)}) == 2
    with pytest.raises(TypeError):
        ErrorReport("rk4", 0.5)
    for make, msg in [
            (lambda: Kappa(1.0), "kappa out of range: need |kappa| < 1, got 1.0"),
            (lambda: DecayProblem(k, beta=0.0), "beta must be positive, got 0.0"),
            (lambda: DecayProblem(k, x_max=-1.0), "x_max must be positive, got -1.0"),
            (lambda: DecayProblem(k, f0=math.inf), "f0 must be finite, got inf"),
            (lambda: LogisticProblem(k, f0=1.0), "f0 must lie in (0, 1), got 1.0"),
            (lambda: LogisticProblem(k, x_max=0.0), "x_max must be positive, got 0.0"),
            (lambda: PowerSeries("t", [1.0]), "unknown series variable 't'"),
            (lambda: PowerSeries("x", []), "coefficients must be a nonempty finite list")]:
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == msg


@pytest.mark.parametrize("slotted,plain,args", [
    (SlottedDecay, PlainDecay, (Kappa(0.5),)),
    (SlottedDecay, PlainDecay, (Kappa(-0.9), 2.0, 0.25, 3.0)),
    (SlottedLogistic, PlainLogistic, (Kappa(0.5),)),
    (SlottedLogistic, PlainLogistic, (Kappa(0.3), 0.2, 4.0))])
def test_record_subclass_with_empty_slots_keeps_its_fields(slotted, plain, args):
    # __slots__ = () names no new field: the subclass has its base's fields,
    # as the subclass without __slots__ has
    s, p = slotted(*args), plain(*args)
    base = slotted.__mro__[1]
    assert s._values() == p._values() == base(*args)._values()
    assert s == slotted(*args) and s != p and s != base(*args)
    assert hash(s) == hash(slotted(*args)) == hash(p)
    assert repr(s) == repr(p).replace(plain.__name__, slotted.__name__, 1)
    for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is slotted and twin == s and twin is not s
    with pytest.raises(AttributeError):
        s.extra = 0
    assert analytic_trace(s, 0.25) == analytic_trace(p, 0.25)
    assert list(error_ladder(s, "rk4", 0.5, 3)) == list(error_ladder(p, "rk4", 0.5, 3))


def test_record_subclass_adds_the_slots_it_names():
    # new slots are fields after the base's, one value each in __init__
    r = Point3(1.0, 2.0, 3.0)
    assert repr(r) == "Point3(x=1.0, y=2.0, z=3.0)"
    assert r == pickle.loads(pickle.dumps(r)) and r != Point3(1.0, 2.0, 4.0)
    with pytest.raises(TypeError, match="Point3 takes 3 values, got 1"):
        Point3(1.0)


def test_record_subclass_with_one_string_slot_has_one_field():
    r = Named(1.0)
    assert Named._fields == ("value",) and r.value == 1.0
    assert r == Named(1.0) and r != Named(2.0) and hash(r) == hash(Named(1.0))
    assert repr(r) == "Named(value=1.0)"
    twin = pickle.loads(pickle.dumps(r))
    assert type(twin) is Named and twin == r and twin is not r
    with pytest.raises(TypeError, match="Named takes 1 values, got 2"):
        Named(1.0, 2.0)


def test_kappa_exp_frozen_value():
    assert kappa_exp(Kappa(0.5), 1.0) == pytest.approx(KEXP_HALF_AT_1, rel=1e-15)


@pytest.mark.parametrize("k", KAPPAS)
def test_kappa_exp_at_zero_is_one(k):
    assert kappa_exp(Kappa(k), 0.0) == 1.0


def test_kappa_exp_classical_limit():
    k = Kappa(1e-6)
    for x in [-5.0, -1.0, 0.3, 2.0, 5.0]:
        assert abs(kappa_exp(k, x) - math.exp(x)) / math.exp(x) < 1e-9


def test_kappa_exp_overflow_is_inf():
    assert kappa_exp(Kappa(0.5), 1e300) == math.inf


def test_kappa_exp_rejects_nonfinite():
    with pytest.raises(DomainError):
        kappa_exp(Kappa(0.5), math.inf)


def test_kappa_exp_power_law_tail():
    # exp_k(-x) * (2 k x)^(1/k) -> 1 in the power-law regime
    k = 0.75
    ratio = kappa_exp(Kappa(k), -1e6) * (2 * k * 1e6) ** (1 / k)
    assert abs(ratio - 1.0) < 1e-4


def test_kappa_ln_frozen_values():
    assert kappa_ln(Kappa(0.5), math.e) == pytest.approx(KLN_HALF_AT_E, rel=1e-15)
    assert kappa_ln(Kappa(0.7), 1.0) == 0.0
    assert kappa_ln(Kappa(0.5), KEXP_HALF_AT_1) == pytest.approx(1.0, rel=1e-14)


def test_kappa_ln_matches_power_form():
    for k in [0.1, 0.5, 0.9]:
        for x in [0.01, 0.5, 2.0, 100.0]:
            power_form = (x**k - x**-k) / (2 * k)
            assert kappa_ln(Kappa(k), x) == pytest.approx(power_form, rel=1e-12)


def test_kappa_ln_odd_under_reciprocal():
    k = Kappa(0.6)
    for x in [0.2, 3.0, 50.0]:
        assert kappa_ln(k, 1 / x) == pytest.approx(-kappa_ln(k, x), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_kappa_ln_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        kappa_ln(Kappa(0.5), bad)


@given(st.floats(min_value=-0.99, max_value=0.99),
       st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200)
def test_inverse_pair_property(kv, x):
    k = Kappa(kv)
    y = kappa_exp(k, x)
    if 0.0 < y < math.inf:
        assert kappa_ln(k, y) == pytest.approx(x, rel=1e-11, abs=1e-11)


@given(st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=200)
def test_evenness_in_kappa(kv, x):
    a = kappa_exp(Kappa(kv), x)
    b = kappa_exp(Kappa(-kv), x)
    assert a == pytest.approx(b, rel=1e-15)


def test_kappa_sum_frozen_value():
    assert kappa_sum(Kappa(0.5), 1.0, 1.0) == pytest.approx(KSUM_HALF_1_1, rel=1e-15)


def test_kappa_sum_group_identity_and_inverse():
    k = Kappa(0.8)
    for x in [-3.0, 0.0, 7.5]:
        assert kappa_sum(k, x, 0.0) == x
        assert abs(kappa_sum(k, x, -x)) < 1e-12


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10))
@settings(max_examples=200)
def test_kappa_sum_commutes(x, y):
    k = Kappa(0.7)
    assert kappa_sum(k, x, y) == pytest.approx(kappa_sum(k, y, x), rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10))
@settings(max_examples=200)
def test_exp_homomorphism(x, y):
    # exp_k(x (+) y) = exp_k(x) * exp_k(y)
    k = Kappa(0.6)
    lhs = kappa_exp(k, kappa_sum(k, x, y))
    rhs = kappa_exp(k, x) * kappa_exp(k, y)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_kappa_product_frozen_value():
    assert kappa_product(Kappa(0.5), 1.0, 1.0) == pytest.approx(KPROD_HALF_1_1, rel=1e-14)


def test_kappa_product_identity_element():
    k = Kappa(0.5)
    ident = kappa_product_identity(k)
    assert ident == pytest.approx(math.sinh(0.5) / 0.5, rel=1e-15)
    for y in [-2.0, 0.3, 5.0]:
        assert kappa_product(k, ident, y) == pytest.approx(y, rel=1e-12)


def test_kappa_product_classical_limit():
    # k = 0 is the ordinary product, and tiny k is continuous with it
    assert kappa_product(Kappa(0.0), 2.0, 3.0) == 6.0
    assert kappa_product(Kappa(1e-200), 2.0, 3.0) == 6.0
    assert kappa_product(Kappa(-5e-324), -2.0, 3.0) == -6.0


def test_kappa_product_overflow_is_signed_inf():
    # the sinh argument is asinh(5e9)^2 / 0.5, about 1.0e3: past sinh's range
    k = Kappa(0.5)
    assert kappa_product(k, 1e10, 1e10) == math.inf
    assert kappa_product(k, -1e10, 1e10) == -math.inf
    # the product is even in kappa, overflow included
    assert kappa_product(Kappa(-0.5), 1e10, 1e10) == math.inf


def test_sinh_map_overflow_is_signed_inf():
    # kappa_ln and the inverse coordinate map overflow in the same sinh as the
    # kappa-product: -inf for ln_0.99(5e-324), whose value is about -5.98e319
    assert kappa_ln(Kappa(0.99), 5e-324) == -math.inf
    assert from_kappa_number(Kappa(0.5), 1500.0) == math.inf
    assert from_kappa_number(Kappa(-0.5), -1500.0) == -math.inf
    assert from_kappa_number(Kappa(1e-300), sys.float_info.max) == math.inf


SWEEP_KAPPAS = [0.0, 1e-300, 0.1, 0.5, 0.9, 0.99, 0.999999, -0.5, -0.99]
SWEEP_XS = [s * v for v in (0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.0, 10.0, 700.0,
                            1e10, 1e100, 1e200, 1e300, sys.float_info.max)
            for s in (1.0, -1.0)]
SWEEP_KERNELS = {fn.__name__: fn for fn in (
    kappa_exp, kappa_ln, kappa_sum, kappa_product, to_kappa_number,
    from_kappa_number, differential_weight, asymptote_check)}


@pytest.mark.parametrize("name", sorted(SWEEP_KERNELS))
def test_kernels_return_a_number_or_raise_domain_error(name):
    # every finite argument from 0 to the float maximum, both signs: a result
    # that leaves the float range is +-inf or 0, never an OverflowError or nan
    fn = SWEEP_KERNELS[name]
    arity = 2 if fn in (kappa_sum, kappa_product) else 1
    bad = []
    for kv in SWEEP_KAPPAS:
        for args in itertools.product(SWEEP_XS, repeat=arity):
            try:
                v = fn(Kappa(kv), *args)
            except DomainError:
                continue
            except ArithmeticError as exc:
                v = exc
            if type(v) is not float or math.isnan(v):
                bad.append((kv, args, v))
    assert not bad, f"{len(bad)} failures, first {bad[:5]}"


# Every public name that takes a float, called on arbitrary floats,
# subnormals, the float maximum, nan, +-inf and ints beyond the float range
# included: each entry draws the
# arguments and makes the call of them (kappa first, a problem from its fields, a
# series from its coefficients).  A name that takes no float, or takes only
# what the library built, is listed apart, so a new public name must go in
# one table or the other.
PUBLIC_NAMES = {n for m in ("core", "errors", "harness", "ode", "series")
                for n in importlib.import_module(f"kappamath.{m}").__all__}
NO_FLOAT_ARGUMENT = {"DomainError", "ConvergenceError", "FloorError", "ErrorReport",
                     "ConvergenceReport", "SeriesErrorCurve", "PicardSeriesReport",
                     "SolutionTrace", "SOLVERS", "MAX_LEVELS", "MAX_ORDER", "MAX_POINTS",
                     "ROUNDOFF_FLOOR", "fit_ladder"}
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
     math.nan, math.inf, -math.inf, 10**400, -10**400])
KAPPA_FLOAT = ANY_FLOAT | st.floats(-1.0, 1.0)
FLOAT_LISTS = st.lists(ANY_FLOAT, min_size=1, max_size=4)
ORDERS = st.integers(0, 12)
# (constructor, its float arguments); the problem is built inside the call
_DECAY = st.tuples(st.just(DecayProblem), st.tuples(KAPPA_FLOAT, *[ANY_FLOAT] * 3))
_LOGISTIC = st.tuples(st.just(LogisticProblem), st.tuples(KAPPA_FLOAT, *[ANY_FLOAT] * 2))
PROBLEMS = _DECAY | _LOGISTIC


def _problem(made):
    make, (kv, *fields) = made
    return make(Kappa(kv), *fields)


def _few_steps(made, h, levels=1):
    """False for a valid grid of more than 256 steps at its finest level
    (the span is at most 2 x_max): a larger grid takes the same code path,
    only for longer."""
    try:
        steps = abs(2.0 * made[1][-1] / h) if h else math.inf
    except OverflowError:  # an int beyond the float range, refused at once
        return True
    return not (256 < steps * 2 ** (levels - 1) and steps < kappamath.MAX_POINTS)


def _integrand(t):
    return 1.0 / math.hypot(1.0, t)


def _on_kappa(fn):
    return lambda kv, *args: fn(Kappa(kv), *args)


def _on_problem(fn):
    return lambda made, *args: fn(_problem(made), *args)


_METHODS = st.sampled_from(["euler", "ab2", "rk4"])

# name: (strategy of the argument tuple, the call, examples that must hold)
FLOAT_CALLS = {
    "Kappa": (st.tuples(KAPPA_FLOAT), Kappa, []),
    **{name: (st.tuples(KAPPA_FLOAT, ANY_FLOAT), _on_kappa(getattr(kappamath, name)), [])
       for name in ("kappa_exp", "kappa_ln", "to_kappa_number", "from_kappa_number")},
    # 0 * inf inside the hypot gave nan, where the weight at kappa = 0 is 1
    "differential_weight": (st.tuples(KAPPA_FLOAT, ANY_FLOAT),
                            _on_kappa(differential_weight), [(0.0, math.inf)]),
    # at a tiny kappa the log of the ratio once cancelled past the float range
    "asymptote_check": (st.tuples(KAPPA_FLOAT, ANY_FLOAT), _on_kappa(asymptote_check),
                        [(5.04318622038353e-270, sys.float_info.max)]),
    # each gave nan: the sum's limit is +inf, the product took 0 * inf
    "kappa_sum": (st.tuples(KAPPA_FLOAT, ANY_FLOAT, ANY_FLOAT), _on_kappa(kappa_sum),
                  [(0.5, math.inf, -1.0)]),
    "kappa_product": (st.tuples(KAPPA_FLOAT, ANY_FLOAT, ANY_FLOAT), _on_kappa(kappa_product),
                      [(0.0, math.inf, 0.0)]),
    "kappa_product_identity": (st.tuples(KAPPA_FLOAT), _on_kappa(kappa_product_identity), []),
    "adaptive_quadrature": (st.tuples(ANY_FLOAT, ANY_FLOAT),
                            lambda a, b: adaptive_quadrature(_integrand, a, b), []),
    "kappa_integral": (st.tuples(KAPPA_FLOAT, ANY_FLOAT, ANY_FLOAT),
                       lambda kv, a, b: kappa_integral(Kappa(kv), _integrand, a, b), []),
    "DecayProblem": (st.tuples(KAPPA_FLOAT, *[ANY_FLOAT] * 3), _on_kappa(DecayProblem), []),
    "LogisticProblem": (st.tuples(KAPPA_FLOAT, *[ANY_FLOAT] * 2),
                        _on_kappa(LogisticProblem), []),
    # x = inf gave the limit 0.0, where x = -inf raised; f0 = 0 times the
    # overflowed exp_k(-beta x) of an x < 0 gave nan
    "closed_form_decay": (st.tuples(_DECAY, ANY_FLOAT),
                          _on_problem(kappamath.closed_form_decay),
                          [((DecayProblem, (0.5, 1.0, 1.0, 5.0)), math.inf),
                           ((DecayProblem, (0.0, 1.0, 0.0, 5.0)), -1000.0),
                           ((DecayProblem, (0.0, 1.0, 0.0, 5.0)), math.nan),
                           ((DecayProblem, (0.0, 1.0, 0.0, 5.0)), -math.inf)]),
    **{name: (st.tuples(_DECAY, ANY_FLOAT), _on_problem(getattr(kappamath, name)), [])
       for name in ("quadrature_decay", "substitution_decay")},
    "residual_decay": (
        st.tuples(_DECAY, *[ANY_FLOAT] * 3), _on_problem(kappamath.residual_decay),
        # beta*f and hypot(1/beta, kappa x)*f' overflow with opposite signs
        [((DecayProblem, (1e-300, 1e300, 1.0, sys.float_info.max)), -1e300, 1e300, 1e100)]),
    **{name: (st.tuples(_LOGISTIC, ANY_FLOAT), _on_problem(getattr(kappamath, name)), [])
       for name in ("logistic_closed_form", "logistic_residual")},
    "slope_field": (st.tuples(PROBLEMS, FLOAT_LISTS, FLOAT_LISTS),
                    _on_problem(kappamath.slope_field), []),
    **{name: (st.tuples(PROBLEMS, ANY_FLOAT).filter(lambda a: _few_steps(*a)),
              _on_problem(getattr(kappamath, name)), [])
       for name in ("euler_solve", "ab2_solve", "analytic_trace")},
    # the one step's terms overflow with both signs
    "rk4_solve": (st.tuples(PROBLEMS, ANY_FLOAT).filter(lambda a: _few_steps(*a)),
                  _on_problem(kappamath.rk4_solve),
                  [((DecayProblem, (0.0, 8.62628186714051e+35, 1.0, 2.3666678470982e+100)),
                    2.3666678470982e+100)]),
    "error_table": (st.tuples(PROBLEMS, ANY_FLOAT).filter(lambda a: _few_steps(*a)),
                    lambda made, h: error_table(_problem(made), ["euler", "ab2", "rk4"], h),
                    []),
    "error_ladder": (
        st.tuples(PROBLEMS, ANY_FLOAT, st.integers(1, 3), _METHODS)
        .filter(lambda a: _few_steps(*a[:3])),
        lambda made, h, levels, m: list(kappamath.error_ladder(_problem(made), m, h, levels)),
        []),
    "convergence_order": (
        st.tuples(PROBLEMS, ANY_FLOAT, st.integers(1, 3), _METHODS)
        .filter(lambda a: _few_steps(*a[:3])),
        lambda made, h, levels, m: convergence_order(_problem(made), m, h, levels), []),
    "series_error_curve": (
        st.tuples(KAPPA_FLOAT, st.lists(ORDERS, min_size=1, max_size=3), FLOAT_LISTS),
        _on_kappa(series_error_curve),
        # the series and exp_0(1e100) are both inf
        [(0.0, [8], [-1e100])]),
    "picard_vs_series": (
        st.tuples(KAPPA_FLOAT, ORDERS, FLOAT_LISTS), _on_kappa(picard_vs_series),
        # both routes are inf
        [(0.0, 8, [1e100])]),
    "PowerSeries": (st.tuples(st.sampled_from("xu"), FLOAT_LISTS), PowerSeries, []),
    "series_truncate": (st.tuples(FLOAT_LISTS, ORDERS), kappamath.series_truncate, []),
    # terms that overflow with both signs, and a zero times an overflowed power
    "series_multiply": (st.tuples(FLOAT_LISTS, FLOAT_LISTS, ORDERS),
                        kappamath.series_multiply, [([1e300, 1e300], [1e300, -1e300], 1)]),
    "series_compose": (st.tuples(FLOAT_LISTS, FLOAT_LISTS.map(lambda c: [0.0, *c]), ORDERS),
                       kappamath.series_compose,
                       [([1e300, 1e300, 1e300], [0.0, 1e300, -1e300], 2),
                        ([1.0, 0.0, 0.0, 1.0], [0.0, 1e200], 3)]),
    **{name: (st.tuples(KAPPA_FLOAT, ORDERS), _on_kappa(getattr(kappamath, name)), [])
       for name in ("exp_kappa_taylor", "ln_kappa_shifted_taylor", "sqrt_weight_series",
                    "decay_series_solution", "picard_iterate")},
    "picard_iterate_in_x": (
        st.tuples(KAPPA_FLOAT, ORDERS, ORDERS),
        lambda kv, n, order: kappamath.picard_iterate_in_x(
            kappamath.picard_iterate(Kappa(kv), n), Kappa(kv), order), []),
    "evaluate_series": (
        st.tuples(st.sampled_from("xu"), FLOAT_LISTS, KAPPA_FLOAT, ANY_FLOAT),
        lambda var, c, kv, x: kappamath.evaluate_series(PowerSeries(var, c), Kappa(kv), x),
        []),
}


def _numbers_in(v):
    """Every float or int in a result: itself, or the numbers in its items or
    fields."""
    if isinstance(v, (float, int)):
        yield v
    elif isinstance(v, (tuple, list)):
        for item in v:
            yield from _numbers_in(item)
    elif isinstance(v, core.Record):
        for name in type(v).__slots__:
            yield from _numbers_in(getattr(v, name))


def test_every_public_name_is_in_one_table():
    assert not set(FLOAT_CALLS) & NO_FLOAT_ARGUMENT
    assert set(FLOAT_CALLS) | NO_FLOAT_ARGUMENT == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_public_names_give_a_number_or_raise_on_any_float(name):
    # a nan, +-inf or int beyond the float range: DomainError, never the
    # OverflowError of a conversion to float.  Finite arguments: a number, a
    # signed inf (the correctly rounded value of an overflow), DomainError
    # or ConvergenceError; never nan, never another exception
    args_strategy, call, examples = FLOAT_CALLS[name]

    def check(args):
        finite = all(abs(v) <= sys.float_info.max for v in _numbers_in(args))
        try:
            result = call(*args)
        except DomainError:
            return
        except ConvergenceError:
            assert finite, args
            return
        assert finite, (args, result)
        assert not any(map(math.isnan, _numbers_in(result))), (args, result)

    for args in examples:
        check = example(args)(check)
    settings(max_examples=100, deadline=None)(given(args_strategy)(check))()


_K = Kappa(0.5)
_D = DecayProblem(_K)


# name: (a call of the int, the start of its message)
BEYOND_FLOAT_RANGE = {
    "Kappa": (lambda v: Kappa(v), "kappa out of range: need |kappa| < 1, got "),
    "kappa_exp": (lambda v: kappa_exp(_K, v), "kappa_exp needs finite x, got "),
    "kappa_ln": (lambda v: kappa_ln(_K, v), "kappa_ln needs x > 0, got "),
    "kappa_sum": (lambda v: kappa_sum(_K, v, 1.0), "kappa_sum needs finite arguments, got "),
    "kappa_product": (lambda v: kappa_product(_K, 1.0, v),
                      "kappa_product needs finite arguments, got "),
    "adaptive_quadrature": (lambda v: adaptive_quadrature(math.cos, 0.0, v),
                            "bad interval [0.0, "),
    "DecayProblem.beta": (lambda v: DecayProblem(_K, beta=v), "beta must be positive, got "),
    "DecayProblem.f0": (lambda v: DecayProblem(_K, f0=v), "f0 must be finite, got "),
    "LogisticProblem.x_max": (lambda v: LogisticProblem(_K, x_max=v),
                              "x_max must be positive, got "),
    "closed_form_decay": (lambda v: kappamath.closed_form_decay(_D, v),
                          "closed_form_decay needs finite arguments, got "),
    "logistic_closed_form": (lambda v: kappamath.logistic_closed_form(LogisticProblem(_K), v),
                             "logistic_closed_form needs finite arguments, got "),
    "residual_decay": (lambda v: kappamath.residual_decay(_D, 1.0, v, 1.0),
                       "residual_decay needs finite arguments, got "),
    "slope_field": (lambda v: kappamath.slope_field(_D, [v], [1.0]),
                    "slope_field needs finite arguments, got "),
    "rk4_solve.h": (lambda v: rk4_solve(_D, abs(v)), "step size 1000"),
    "convergence_order.h0": (lambda v: convergence_order(_D, "euler", abs(v), 2),
                             "step size 1000"),
    "series_error_curve": (lambda v: series_error_curve(_K, [4], [v]),
                           "series_error_curve needs finite arguments, got "),
    "PowerSeries": (lambda v: PowerSeries("x", [1.0, v]),
                    "coefficients must be a nonempty finite list"),
    "series_multiply": (lambda v: kappamath.series_multiply([v], [1.0], 2),
                        "series_multiply needs finite arguments, got "),
    "evaluate_series": (lambda v: kappamath.evaluate_series(PowerSeries("x", [1.0]), _K, v),
                        "evaluate_series needs finite x, got "),
}


@pytest.mark.parametrize("name", sorted(BEYOND_FLOAT_RANGE))
@pytest.mark.parametrize("big", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_ints_beyond_the_float_range_raise_domain_error(name, big):
    # math.isfinite and float() raise OverflowError for such an int; the
    # message is the one a nan or infinite argument gets
    call, message = BEYOND_FLOAT_RANGE[name]
    with pytest.raises(DomainError) as info:
        call(big)
    assert str(info.value).startswith(message)


def test_series_coefficient_that_is_not_a_number_raises_type_error():
    # as the ring helpers do: a str is not read as the number it spells
    for call in (lambda: PowerSeries("x", [1.0, "1"]),
                 lambda: kappamath.series_multiply([1.0, "1"], [1.0], 2)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: kappa_sum(_K, 10**400, math.nan),
     f"kappa_sum needs finite arguments, got {10**400!r}"),
    (lambda: kappa_sum(_K, math.nan, 10**400), "kappa_sum needs finite arguments, got nan"),
    (lambda: kappamath.series_multiply([1.0, -math.inf], [10**400], 2),
     "series_multiply needs finite arguments, got -inf"),
], ids=["int-then-nan", "nan-then-int", "inf-then-int"])
def test_the_first_argument_that_is_not_finite_is_named(call, message):
    # one check per argument, in call order, whether a nan, an inf or an int
    # beyond the float range comes first
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("kv", [0.0, 0.5])
@pytest.mark.parametrize("x, want", [(10**300, math.inf), (-10**300, 0.0)])
def test_kappa_exp_of_an_int_whose_exp_leaves_the_float_range(kv, x, want):
    # a finite int; at kappa = 0 the int itself reaches math.exp
    got = kappa_exp(Kappa(kv), x)
    assert got == want and math.copysign(1.0, got) == 1.0


def test_exp_max_is_the_last_float_whose_exp_is_finite():
    # core._EXP_MAX decides exp overflow for every module: math.exp is finite
    # there and raises at the next float, and log of the float maximum lies
    # between the two
    top = core._EXP_MAX
    above = math.nextafter(top, math.inf)
    assert math.isfinite(math.exp(top))
    with pytest.raises(OverflowError):
        math.exp(above)
    with mp.workdps(60):
        assert top <= mp.log(sys.float_info.max) < above
    assert (core._exp(top), core._exp(above)) == (math.exp(top), math.inf)
    assert math.isnan(core._exp(math.nan))


# 50-digit references of the defining closed forms; k = 0 is the classical limit.
def _mp_exp(k, x):
    return mp.exp(x if k == 0 else mp.asinh(k * x) / k)


def _mp_ln(k, x):
    return mp.log(x) if k == 0 else mp.sinh(k * mp.log(x)) / k


def _mp_sum(k, x, y):
    a, b = mp.sqrt(1 + k**2 * y**2), mp.sqrt(1 + k**2 * x**2)
    if x * y < 0:
        # the direct form cancels to no correct digit once |x y| passes about
        # 1e50; its conjugate form, the same value, does not cancel
        return (x + y) * (x - y) / (x * a - y * b)
    return x * a + y * b


def _mp_product(k, x, y):
    return x * y if k == 0 else mp.sinh(mp.asinh(k * x) * mp.asinh(k * y) / k) / k


MP_KAPPAS = [0.0] + [s * v for v in (5e-324, 1e-300, 1e-200, 3e-5, 1e-4, 0.5, 0.99)
                     for s in (1.0, -1.0)]
MP_XS = [-10.0, -3.7, -1.0, -0.3, -1e-3, 0.0, 1e-3, 0.3, 1.0, 3.7, 10.0]
# x and -x(1 +- 1e-6) up to the float maximum, where the two terms of the
# direct kappa-sum cancel (or overflow to inf - inf), in both orders
SUM_CANCELLING = [
    pair for x in (1e-3, 3.7, 4e5, 9.46e11, 1e100, 1e154, 1e300, 1.79e308)
    for y in (-x * (1 + 1e-6), -x * (1 - 1e-6), -x) if math.isfinite(y)
    for pair in ((x, y), (y, x))]
MP_KERNELS = {
    "exp": (kappa_exp, _mp_exp, [(x,) for x in MP_XS]),
    "ln": (kappa_ln, _mp_ln, [(x,) for x in MP_XS if x > 0.0]),
    "sum": (kappa_sum, _mp_sum, [(x, y) for x in MP_XS for y in MP_XS] + SUM_CANCELLING),
    "product": (kappa_product, _mp_product, [(x, y) for x in MP_XS for y in MP_XS]),
}


@pytest.mark.parametrize("kv", MP_KAPPAS)
@pytest.mark.parametrize("name", sorted(MP_KERNELS))
def test_scalar_kernels_match_mpmath(name, kv):
    # Worst relative error measured over this grid is 1.5e-15 (kappa_exp at
    # k = 1e-4, x = -10): exp turns the rounding of its argument u, |u| <= 10,
    # into a relative error of about |u| ulp.  4e-15 (18 ulp) leaves room for
    # that and a few ulp of the other steps.  The absolute floor only admits
    # results that are exactly 0 (x = 0, x = -y, ln 1), where a relative error
    # is undefined.
    fn, ref, args = MP_KERNELS[name]
    k = Kappa(kv)
    with mp.workdps(50):
        for a in args:
            want = ref(mp.mpf(kv), *map(mp.mpf, a))
            got = fn(k, *a)
            assert abs(got - want) <= 4e-15 * abs(want) + 1e-300, (a, got, float(want))


def _ulps(got, want):
    """|got - want| in units in the last place of want rounded to a float.
    Below the smallest normal that unit is the smallest subnormal, so a
    subnormal or exactly 0 want is compared absolutely.  A want beyond the
    float range counts in units of the last place of the float maximum, and
    an inf counts 0 where want rounds to that inf, else inf."""
    w = float(want)
    if math.isinf(got):
        return 0.0 if got == w else math.inf
    return float(abs(got - want)) / math.ulp(min(abs(w), sys.float_info.max))


# every binary exponent alike, and hypothesis's own choice of awkward floats
_ANY_FLOAT = (st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))
              | st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE_FLOAT = _ANY_FLOAT.map(abs).filter(lambda x: x > 0.0)
_WHOLE_RANGE_KAPPAS = (st.just(0.0) | st.floats(-0.999, 0.999)
                       | st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, -14)))


@st.composite
def _sum_pairs(draw):
    # y independent of x, or -x(1 + d), where the two terms nearly cancel
    x = draw(_ANY_FLOAT)
    y = draw(_ANY_FLOAT | st.floats(-1e-6, 1e-6).map(lambda d: -x * (1.0 + d)))
    return x, y if math.isfinite(y) else -x


def _mp_u(k, x):
    return x if k == 0 else mp.asinh(k * x) / k


def _no_t(k, *args):
    return 0


# name: (kernel, 60-digit reference, t, arguments, c, examples): the error
# bound is c * (|t| + 1) ulp, t the final exp or sinh argument, which turns
# its own rounding into about |t| ulp; t is 0 for the constant bounds.
# Constant bounds: over 200 000 draws of kappa and the arguments, 30 000
# more with one argument near the float maximum for kappa_sum (2-vCPU
# Linux, Python 3.11.7), the worst errors were 2.65, 2.08 and 4.65 ulp; the
# examples are the draws that gave them, and k x = 5e-4, just past the
# arcsinh series.  kappa_sum's worst are opposite signs of magnitudes 1e308
# apart, whose smaller one, scaled by 0.5/max(|x|, |y|), is subnormal and
# keeps only a few bits.
# Growing bounds: over 1 000 000 draws per kernel (kappa as above, the
# arguments as ldexp or random bit patterns; 2-vCPU Linux, Python 3.11.7)
# the worst ulps / (|t| + 1) of kappa_exp, kappa_ln, from_kappa_number and
# kappa_product were 2.50, 2.50, 2.21 and 4.40, so c is 3, 3, 3 and 6; the
# examples are the draws that gave them.  The product's t carries the
# roundings of two arcsinh, two quotients and two products.  |t| is capped
# at 746 in the bound: past that, exp and sinh over- or underflow, and the
# result must be the inf or the (subnormal) 0 of the reference.
WHOLE_RANGE_KERNELS = {
    "to_kappa_number": (to_kappa_number, _mp_u, _no_t, st.tuples(_ANY_FLOAT), 4.0,
                        [(-3.0435161897356685e-113, (1.703612784943635e+109,)),
                         (0.5, (1e-3,))]),
    "differential_weight": (differential_weight, lambda k, x: 1 / mp.sqrt(1 + k**2 * x**2),
                            _no_t, st.tuples(_ANY_FLOAT), 3.0,
                            [(0.28436178802244927, (-3786339.2204202954,))]),
    "kappa_sum": (kappa_sum, _mp_sum, _no_t, _sum_pairs(), 6.0,
                  [(-0.999, (8.880779386324986e+307, -1.6100142611367237e-10)),
                   (0.7849145727490755, (-1.2954096363252756e-14, 1.7976931348623157e+308))]),
    "kappa_exp": (kappa_exp, _mp_exp, _mp_u, st.tuples(_ANY_FLOAT), 3.0,
                  [(0.008667606716798892, (14.578955372209585,))]),
    "kappa_ln": (kappa_ln, _mp_ln, lambda k, x: k * mp.log(x), st.tuples(_POSITIVE_FLOAT),
                 3.0, [(4.109622075452843e-05, (9.98403591742891e-87,))]),
    "from_kappa_number": (from_kappa_number, lambda k, u: u if k == 0 else mp.sinh(k * u) / k,
                          lambda k, u: k * u, st.tuples(_ANY_FLOAT), 3.0,
                          [(0.5847565032038305, (-0.23723851157771492,))]),
    "kappa_product": (kappa_product, _mp_product, lambda k, x, y: k * _mp_u(k, x) * _mp_u(k, y),
                      st.tuples(_ANY_FLOAT, _ANY_FLOAT), 6.0,
                      [(0.5724549873797328, (1.0, 1.0060854132602124e+238))]),
}


@pytest.mark.parametrize("name", sorted(WHOLE_RANGE_KERNELS))
def test_scalar_kernels_match_mpmath_over_the_float_range(name):
    fn, ref, final, args_strategy, c, examples = WHOLE_RANGE_KERNELS[name]

    def check(kv, args):
        with mp.workdps(60):
            mp_args = [mp.mpf(kv), *map(mp.mpf, args)]
            want = ref(*mp_args)
            bound = c * (min(float(abs(final(*mp_args))), 746.0) + 1.0)
            got = fn(Kappa(kv), *args)
            assert _ulps(got, want) <= bound, (kv, args, got, float(want), bound)

    for kv, args in examples:
        check = example(kv, args)(check)
    settings(max_examples=300, deadline=None)(given(_WHOLE_RANGE_KAPPAS, args_strategy)(check))()


@pytest.mark.xfail(strict=True, reason="kappa_product overflows where sinh(z)/k rounds past "
                   "the float maximum from an exact result at it (FOUND in CHANGES.md)")
def test_kappa_product_of_one_and_the_float_maximum_is_finite():
    # at this tiny kappa the identity element rounds to 1, so 1 (x) -max is
    # -max to within a few ulp; the rounding of t = -316 carries the sinh
    # quotient past the float range
    kv, y = 7.829848892407372e-172, -sys.float_info.max
    with mp.workdps(60):
        want = _mp_product(mp.mpf(kv), mp.mpf(1.0), mp.mpf(y))
    assert _ulps(kappa_product(Kappa(kv), 1.0, y), want) <= 6.0 * (316.0 + 1.0)


def test_group_axioms_random_triples():
    rng = random.Random(20240817)
    k = Kappa(0.75)
    ident = kappa_product_identity(k)
    for _ in range(1000):
        x, y, z = (rng.uniform(-10, 10) for _ in range(3))
        # additive group
        s_xy = kappa_sum(k, x, y)
        assert s_xy == pytest.approx(kappa_sum(k, y, x), rel=1e-10, abs=1e-10)
        assoc_l = kappa_sum(k, s_xy, z)
        assoc_r = kappa_sum(k, x, kappa_sum(k, y, z))
        assert assoc_l == pytest.approx(assoc_r, rel=1e-10, abs=1e-10)
        assert kappa_sum(k, x, 0.0) == x
        assert abs(kappa_sum(k, x, -x)) <= 1e-12 * max(1.0, abs(x))
        # multiplicative group (keep away from the singular point x = 0,
        # where the inverse element overflows sinh)
        if min(abs(x), abs(y), abs(z)) > 0.01:
            p_xy = kappa_product(k, x, y)
            assert p_xy == pytest.approx(kappa_product(k, y, x), rel=1e-10, abs=1e-10)
            passoc_l = kappa_product(k, p_xy, z)
            passoc_r = kappa_product(k, x, kappa_product(k, y, z))
            assert passoc_l == pytest.approx(passoc_r, rel=1e-10, abs=1e-10)
            assert kappa_product(k, x, ident) == pytest.approx(x, rel=1e-12)
            inv = math.sinh(k.value**2 / math.asinh(k.value * x)) / k.value
            assert kappa_product(k, x, inv) == pytest.approx(ident, rel=1e-10)


def test_coordinate_maps_frozen_values():
    k = Kappa(0.9)
    assert to_kappa_number(k, 0.0) == 0.0
    assert to_kappa_number(k, 1.0) == pytest.approx(ARCSINH_09_OVER_09, rel=1e-15)
    assert to_kappa_number(Kappa(0.0), 3.5) == 3.5
    assert from_kappa_number(k, ARCSINH_09_OVER_09) == pytest.approx(1.0, rel=1e-12)
    assert from_kappa_number(k, 0.0) == 0.0
    assert from_kappa_number(Kappa(0.0), -2.0) == -2.0


@given(st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=300)
def test_coordinate_roundtrip(x):
    k = Kappa(0.9)
    back = from_kappa_number(k, to_kappa_number(k, x))
    assert back == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_coordinate_maps_small_kappa_series_path():
    # |kappa x| < 1e-4 takes the odd-series branch, the rest arcsinh(k x)/k;
    # compare both, and each side of the switch, against a high-precision
    # evaluation of arcsinh(k x)/k
    import mpmath as mp

    kv = 1e-6
    k = Kappa(kv)
    for x in [-1e3, -0.5, 0.25, 1e3, 99.99, 100.01]:
        with mp.workdps(40):
            want = float(mp.asinh(mp.mpf(kv) * x) / mp.mpf(kv))
        assert to_kappa_number(k, x) == pytest.approx(want, rel=1e-14)
        assert from_kappa_number(k, to_kappa_number(k, x)) == pytest.approx(x, rel=1e-12)


def test_differential_weight():
    assert differential_weight(Kappa(0.3), 0.0) == 1.0
    assert differential_weight(Kappa(0.75), 1.0) == pytest.approx(0.8, rel=1e-15)
    assert differential_weight(Kappa(0.0), 123.0) == 1.0


def test_kappa_integral_closed_form():
    # integral of the bare weight is the coordinate map itself
    val = kappa_integral(Kappa(0.9), lambda x: 1.0, 0.0, 1.0)
    assert val == pytest.approx(ARCSINH_09_OVER_09, abs=1e-11)


def test_kappa_integral_degenerate_and_classical():
    assert kappa_integral(Kappa(0.4), lambda x: 1.0, 0.0, 0.0) == 0.0
    assert kappa_integral(Kappa(0.0), lambda x: x, 0.0, 2.0) == pytest.approx(2.0, abs=1e-11)


def test_kappa_integral_validation():
    with pytest.raises(DomainError):
        kappa_integral(Kappa(0.4), lambda x: 1.0, 1.0, 0.0)


def test_quadrature_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(core, "QUAD_MAX_EVALS", 200)
    with pytest.raises(ConvergenceError):
        adaptive_quadrature(lambda x: math.sin(1e4 * x), 0.0, 1.0)


def test_quadrature_cannot_split_a_panel():
    # a singularity at 0.3 keeps the panels around it failing until one can
    # no longer be halved in floating point
    with pytest.raises(ConvergenceError, match="cannot split"):
        adaptive_quadrature(lambda t: 1 / abs(t - 0.3) if t != 0.3 else 0.0, 0.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
def test_quadrature_refuses_a_non_finite_panel_at_once(value):
    # a nan or infinite integrand, or a constant whose panel sum overflows,
    # fails on the first panel instead of halving down to [0.0, 5e-324]
    calls = []

    def f(t):
        calls.append(t)
        return value

    with pytest.raises(ConvergenceError,
                       match=r"^quadrature panel \[0\.0, 1\.0\] has the non-finite Kronrod sum"):
        adaptive_quadrature(f, 0.0, 1.0)
    assert len(calls) == 21


# the Gauss-Kronrod 10/21 rule on [-1, 1] as (node, weight) pairs
_KRONROD_RULE = [(0.0, core._GK21_CENTRE)] + [
    (sign * node, wk) for node, wk, *_ in core._GK21_GAUSS + core._GK21_KRONROD
    for sign in (-1.0, 1.0)]
_GAUSS_RULE = [(sign * node, wg) for node, _, wg in core._GK21_GAUSS for sign in (-1.0, 1.0)]


def _rule_error(rule, d):
    """Rule's value for x^d on [-1, 1] minus the exact 2/(d+1) or 0."""
    return math.fsum(w * x**d for x, w in rule) - (2.0 / (d + 1) if d % 2 == 0 else 0.0)


def test_gauss_kronrod_rule_weights_sum_to_two():
    assert len(_KRONROD_RULE) == 21 and len(_GAUSS_RULE) == 10
    assert abs(_rule_error(_KRONROD_RULE, 0)) <= 2 * math.ulp(2.0)
    assert abs(_rule_error(_GAUSS_RULE, 0)) <= 2 * math.ulp(2.0)


def test_gauss_kronrod_rule_degrees_of_exactness():
    # Kronrod is exact through degree 3n + 1 = 31, Gauss through 2n - 1 = 19,
    # and neither one degree further
    for d in range(32):
        assert abs(_rule_error(_KRONROD_RULE, d)) <= 4 * math.ulp(2.0), d
    for d in range(20):
        assert abs(_rule_error(_GAUSS_RULE, d)) <= 4 * math.ulp(2.0), d
    assert abs(_rule_error(_KRONROD_RULE, 32)) > 1e-13
    assert abs(_rule_error(_GAUSS_RULE, 20)) > 1e-7


# (kappa, beta, x) in the benchmark's oracle ranges
_ORACLE_TABLE = [(0.95, 2.0, 5.0), (-0.95, 0.5, 4.9), (0.9, 1.0, 1.0), (0.0, 1.0, 3.0),
                 (-0.3, 1.7, 2.5), (0.75, 1.25, 0.1), (-0.6, 0.8, 3.7), (0.5, 2.0, 5.0)]


def test_quadrature_evaluations_on_oracle_inputs():
    # quadrature_decay's integrand
    counts = []
    for kv, beta, x in _ORACLE_TABLE:
        calls = []
        c = kv * beta

        def f(t):
            calls.append(t)
            return beta * (1.0 / math.hypot(1.0, c * t))

        adaptive_quadrature(f, 0.0, x)
        counts.append(len(calls))
    assert all(n % 21 == 0 for n in counts), counts
    assert sum(counts) == 588, counts


def test_floor_error_is_a_convergence_error():
    # the CLI's exit 3 catches the one type
    assert issubclass(FloorError, ConvergenceError)


@pytest.mark.parametrize("module", ["core", "errors", "harness", "ode", "series"])
def test_every_public_name_imports_from_the_package(module):
    # each module's __all__ is the one list of its public names
    mod = importlib.import_module(f"kappamath.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(kappamath, name) is getattr(mod, name), name
