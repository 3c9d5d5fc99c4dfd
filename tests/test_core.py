import copy
import math
import pickle
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappamath import (
    ConvergenceError,
    DecayProblem,
    DomainError,
    ErrorReport,
    Kappa,
    LogisticProblem,
    PowerSeries,
    adaptive_quadrature,
    convergence_order,
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
from kappamath import core

# High-precision reference values, frozen from 40-digit mpmath evaluation of
# the defining closed forms.
KEXP_HALF_AT_1 = 2.6180339887498948482
KLN_HALF_AT_E = 1.0421906109874947232
KSUM_HALF_1_1 = 2.2360679774997896964
KPROD_HALF_1_1 = 0.95972829134738505642
ARCSINH_09_OVER_09 = 0.89874103961420273612

KAPPAS = [0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9]


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
        if type(r).__name__ == "SeriesErrorCurve":
            with pytest.raises(TypeError):  # its abs_errors field is a dict
                hash(r)
        else:
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


def test_kappa_product_classical_limit_flag():
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


def test_adaptive_simpson_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(core, "QUAD_MAX_EVALS", 200)
    with pytest.raises(ConvergenceError):
        adaptive_quadrature(lambda x: math.sin(1e4 * x), 0.0, 1.0)
