import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappamath import (
    ConvergenceError,
    DomainError,
    Kappa,
    PowerSeries,
    decay_series_solution,
    evaluate_series,
    exp_kappa_taylor,
    kappa_exp,
    ln_kappa_shifted_taylor,
    picard_iterate,
    sqrt_weight_series,
)
from kappamath import series
from kappamath.series import (
    MAX_ORDER,
    _coordinate_series,
    picard_iterate_in_x,
    series_compose,
    series_multiply,
    series_truncate,
)

ARCSINH_09_OVER_09 = 0.89874103961420273612


def horner_compose(outer, inner, order):
    # reference composition: Horner over polynomials,
    # result = outer[n]; result = result*inner + outer[j]
    out = [0.0] * (order + 1)
    for cj in reversed(list(outer[: order + 1])):
        out = series_multiply(out, inner, order)
        out[0] += cj
    return out


def exp_coefficient_formulas(k):
    # closed forms for the first six Maclaurin coefficients of exp_k
    return [1.0, 1.0, 0.5,
            (1 - k**2) / 6.0,
            (1 - 4 * k**2) / 24.0,
            (1 - k**2) * (1 - 9 * k**2) / 120.0]


def ln1p_coefficient_formulas(k):
    return [0.0, 1.0, -0.5,
            (1 + k**2 / 2) / 3.0,
            -(1 + k**2) / 4.0,
            (24 + 35 * k**2 + k**4) / 120.0]


@pytest.mark.parametrize("kv", [0.0, 0.1, 0.5, 0.9])
def test_exp_taylor_matches_formulas(kv):
    s = exp_kappa_taylor(Kappa(kv), 5)
    expected = exp_coefficient_formulas(kv)
    for got, want in zip(s.coefficients, expected):
        assert got == pytest.approx(want, abs=1e-15)


def test_exp_taylor_frozen_examples():
    assert exp_kappa_taylor(Kappa(0.5), 5).coefficients[5] == pytest.approx(-0.0078125, abs=1e-15)
    assert exp_kappa_taylor(Kappa(0.9), 3).coefficients[3] == pytest.approx((1 - 0.81) / 6, abs=1e-15)
    assert exp_kappa_taylor(Kappa(0.0), 4).coefficients == (1.0, 1.0, 0.5, 1 / 6, 1 / 24)


def test_exp_taylor_mpmath_oracle():
    # independent oracle: high-precision Taylor coefficients of the closed form
    kv = 0.7
    with mp.workdps(40):
        oracle = mp.taylor(lambda x: mp.exp(mp.asinh(kv * x) / kv), 0, 8)
    s = exp_kappa_taylor(Kappa(kv), 8)
    for got, want in zip(s.coefficients, oracle):
        assert got == pytest.approx(float(want), abs=1e-14)


@pytest.mark.parametrize("kv", [0.0, 0.5, 0.9])
def test_ln1p_taylor_matches_formulas(kv):
    s = ln_kappa_shifted_taylor(Kappa(kv), 5)
    for got, want in zip(s.coefficients, ln1p_coefficient_formulas(kv)):
        assert got == pytest.approx(want, abs=1e-15)


def test_ln1p_taylor_frozen_examples():
    assert ln_kappa_shifted_taylor(Kappa(0.5), 3).coefficients[3] == pytest.approx(0.375, abs=1e-15)
    assert ln_kappa_shifted_taylor(Kappa(0.5), 5).coefficients[5] == pytest.approx(0.2734375, abs=1e-15)
    assert ln_kappa_shifted_taylor(Kappa(0.0), 5).coefficients == (
        0.0, 1.0, -0.5, 1 / 3, -0.25, 0.2)


def test_ln1p_taylor_mpmath_oracle():
    kv = 0.85
    for order, abs_tol, rel_tol in [(8, 1e-14, 0.0), (32, 0.0, 1e-14)]:
        with mp.workdps(40):
            oracle = mp.taylor(lambda x: mp.sinh(kv * mp.log(1 + x)) / kv, 0, order)
        s = ln_kappa_shifted_taylor(Kappa(kv), order)
        assert len(s.coefficients) == order + 1
        for got, want in zip(s.coefficients, oracle):
            assert abs(got - float(want)) <= max(abs_tol, rel_tol * abs(float(want)))


def test_sqrt_weight_series_values():
    assert sqrt_weight_series(Kappa(0.9), 4).coefficients == pytest.approx(
        [1.0, 0.0, 0.405, 0.0, -0.0820125], abs=1e-15)
    assert sqrt_weight_series(Kappa(0.0), 6).coefficients == (1.0,) + (0.0,) * 6
    # C(1/2, 3) = 1/16
    assert sqrt_weight_series(Kappa(0.5), 6).coefficients[6] == pytest.approx(
        0.0009765625, abs=1e-18)


@pytest.mark.parametrize("kv", [0.3, 0.9])
def test_sqrt_weight_series_squares_to_radicand(kv):
    order = 12
    c = sqrt_weight_series(Kappa(kv), order).coefficients
    sq = series_multiply(c, c, order)
    expected = [0.0] * (order + 1)
    expected[0] = 1.0
    expected[2] = kv**2
    for got, want in zip(sq, expected):
        assert got == pytest.approx(want, abs=1e-13)


def test_decay_series_frozen_examples():
    assert decay_series_solution(Kappa(0.5), 3).coefficients[3] == pytest.approx(-0.125, abs=1e-15)
    assert decay_series_solution(Kappa(0.0), 4).coefficients == pytest.approx(
        [1.0, -1.0, 0.5, -1 / 6, 1 / 24], abs=0)


@pytest.mark.parametrize("kv", [0.1, 0.5, 0.9])
def test_decay_series_is_sign_alternated_exp_series(kv):
    # oracle: the g' = u'g recurrence exp series with x -> -x
    exp_c = exp_kappa_taylor(Kappa(kv), 8).coefficients
    dec_c = decay_series_solution(Kappa(kv), 8).coefficients
    for n, (d, e) in enumerate(zip(dec_c, exp_c)):
        assert d == pytest.approx((-1) ** n * e, abs=1e-14)


@pytest.mark.parametrize("kv", [0.1, 0.5, 0.9])
def test_decay_series_evaluates_to_kappa_exp(kv):
    k = Kappa(kv)
    s = decay_series_solution(k, 8)
    got = evaluate_series(s, k, 0.1)
    assert abs(got - kappa_exp(k, -0.1)) < 1e-9


def test_series_order_validation():
    for bad in (-1, 65):
        with pytest.raises(DomainError):
            exp_kappa_taylor(Kappa(0.5), bad)
        with pytest.raises(DomainError):
            decay_series_solution(Kappa(0.5), bad)
        with pytest.raises(DomainError):
            ln_kappa_shifted_taylor(Kappa(0.5), bad)
        with pytest.raises(DomainError):
            sqrt_weight_series(Kappa(0.5), bad)
        # the ring helpers take the builders' orders: no empty list, no
        # IndexError, no list sized by an unchecked order
        with pytest.raises(DomainError):
            series_truncate([1.0], bad)
        with pytest.raises(DomainError):
            series_multiply([1.0], [1.0], bad)
        with pytest.raises(DomainError):
            series_compose([1.0], [0.0], bad)


def test_picard_iterates_are_truncated_exponentials():
    k = Kappa(0.9)
    assert picard_iterate(k, 0).coefficients == (1.0,)
    assert picard_iterate(k, 1).coefficients == (1.0, -1.0)
    for n in range(21):
        it = picard_iterate(k, n)
        assert it.coefficients == tuple(
            float(Fraction((-1) ** j, math.factorial(j))) for j in range(n + 1))


def test_picard_iterate_is_a_series_in_u():
    k = Kappa(0.9)
    it = picard_iterate(k, 5)
    assert isinstance(it, PowerSeries)
    assert it.variable == "u" and it.order == 5
    with pytest.raises(DomainError):
        picard_iterate_in_x(decay_series_solution(k, 5), k, 5)


def test_picard_index_validation(monkeypatch):
    # the index is checked before the cache, where 2.0 == 2 would find the
    # iterate for 2: the builder behind the cache is never reached
    def unreachable(n):
        raise AssertionError(f"built iterate {n!r}")
    monkeypatch.setattr(series, "_picard", unreachable)
    for n in (21, -1, 2.0):
        with pytest.raises(DomainError):
            picard_iterate(Kappa(0.9), n)


def test_picard_iterate_is_the_same_for_every_kappa():
    # the iterate is built once per n and shared by every kappa: a fresh
    # build after the cache is cleared equals the cached one
    kappas = [Kappa(-0.95), Kappa(0.0), Kappa(0.9)]
    cached = [[picard_iterate(k, n) for n in range(21)] for k in kappas]
    assert all(a is b for row in cached for a, b in zip(row, cached[0]))
    series._picard.cache_clear()
    fresh = [picard_iterate(Kappa(0.3), n) for n in range(21)]
    assert not any(a is b for a, b in zip(fresh, cached[0]))
    assert cached == [fresh] * len(kappas)
    assert series._picard.cache_info().currsize == 21


def test_picard_second_iterate_matches_expanded_form():
    # f2(x) = 1/2 + (k - arcsinh(k x))^2 / (2 k^2), checked pointwise
    kv = 0.9
    k = Kappa(kv)
    it = picard_iterate(k, 2)
    for x in [0.0, 0.3, 1.0, 2.5]:
        expanded = 0.5 + (kv - math.asinh(kv * x)) ** 2 / (2 * kv**2)
        assert evaluate_series(it, k, x) == pytest.approx(expanded, rel=1e-13)


@pytest.mark.parametrize("n", range(9))
def test_picard_taylor_agrees_with_decay_series(n):
    k = Kappa(0.5)
    px = picard_iterate_in_x(picard_iterate(k, n), k, n).coefficients
    sx = decay_series_solution(k, n).coefficients
    for a, b in zip(px, sx):
        assert a == pytest.approx(b, abs=1e-12)


def test_evaluate_series_examples():
    k = Kappa(0.9)
    assert evaluate_series(decay_series_solution(k, 4), k, 0.0) == 1.0
    got = evaluate_series(picard_iterate(k, 1), k, 1.0)
    assert got == pytest.approx(1.0 - ARCSINH_09_OVER_09, rel=1e-14)
    k0 = Kappa(0.0)
    val = evaluate_series(exp_kappa_taylor(k0, 10), k0, 1.0)
    assert abs(val - math.e) < 1e-7


def test_evaluate_series_needs_finite_x():
    k = Kappa(0.5)
    with pytest.raises(DomainError):
        evaluate_series(decay_series_solution(k, 4), k, math.inf)


COMPOSITION_KAPPAS = [i * 0.95 / 10 for i in range(-10, 11)] + [1e-300, -3e-5]


@pytest.mark.parametrize("kv", COMPOSITION_KAPPAS)
@pytest.mark.parametrize("order", [5, 48, 64])
def test_exp_taylor_recurrence_matches_composition(kv, order):
    # the O(n^3) route: Horner composition of exp(t) with u(x)
    k = Kappa(kv)
    exp_c = [1.0 / math.factorial(j) for j in range(order + 1)]
    composed = horner_compose(exp_c, _coordinate_series(kv, order), order)
    got = exp_kappa_taylor(k, order).coefficients
    assert len(got) == order + 1
    assert max(abs(g - c) for g, c in zip(got, composed)) <= 1e-15


@pytest.mark.parametrize("order", [0, 1, 5, 16, 32, 64])
@pytest.mark.parametrize("gaps", [False, True])
def test_series_compose_matches_horner(order, gaps):
    # composition by powers vs Horner, each coefficient within 1e-15 of the
    # sum of the magnitudes of its terms (|outer| composed with |inner|)
    rng = random.Random(1000 * order + gaps)
    for _ in range(5):
        outer = [rng.uniform(-1.0, 1.0) for _ in range(order + 1)]
        inner = [0.0] + [rng.uniform(-1.0, 1.0) for _ in range(order)]
        if gaps:
            inner[2::3] = [0.0] * len(inner[2::3])
        got = series_compose(outer, inner, order)
        want = horner_compose(outer, inner, order)
        scale = horner_compose([abs(c) for c in outer], [abs(c) for c in inner], order)
        assert len(got) == order + 1
        for g, w, sc in zip(got, want, scale):
            assert abs(g - w) <= 1e-15 * sc


def test_series_helpers():
    assert series_multiply([1, 1], [1, -1], 2) == [1.0, 0.0, -1.0]
    exp_c = exp_kappa_taylor(Kappa(0.0), 4).coefficients
    assert series_compose(exp_c, [0.0], 4) == [1.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(DomainError):
        series_compose([1.0, 1.0], [1.0, 1.0], 3)
    assert series_truncate([1, 2], 3) == [1.0, 2.0, 0.0, 0.0]


def dense_cauchy(a, b, order):
    # reference product: every term of b, exact zeros included
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def dense_compose(outer, inner, order):
    # reference composition: the running power inner^j by dense products
    inner = list(inner[: order + 1]) + [0.0] * (order + 1 - len(inner))
    out = [0.0] * (order + 1)
    power = [1.0] + [0.0] * order
    for j, cj in enumerate(outer[: order + 1]):
        if j:
            power = dense_cauchy(power, inner, order)
        if cj != 0.0:
            for i in range(j, order + 1):
                out[i] += cj * power[i]
    return out


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except (ConvergenceError, DomainError) as e:
        return (type(e).__name__, str(e))


def reference_outcome(dense, *args):
    coeffs = dense(*args)
    for i, c in enumerate(coeffs):
        if math.isnan(c):
            return ("ConvergenceError", f"series coefficient {i} overflows with both signs")
    return repr(coeffs)


# exact zeros of both signs about half the time, magnitudes up to 1e308, so
# that powers overflow to inf and meet the zeros
_coefficients = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.floats(min_value=-1e308, max_value=1e308)), max_size=MAX_ORDER + 2)


@settings(max_examples=300, deadline=None)
@given(outer=_coefficients, inner=_coefficients, order=st.integers(0, MAX_ORDER),
       sign=st.sampled_from([0.0, -0.0]))
def test_sparse_products_agree_with_the_dense_reference(outer, inner, order, sign):
    # skipping b's exact zeros moves no bit wherever the dense products give
    # a list; where they meet an overflowed power term with a zero, inf * 0
    # is nan and the reference refuses a coefficient the kernel may keep,
    # but a ConvergenceError of the kernel is one of the reference too
    # (whose first nan may come earlier)
    inner = [sign, *inner]
    for fn, dense in ((series_multiply, dense_cauchy), (series_compose, dense_compose)):
        got, want = outcome(fn, outer, inner, order), reference_outcome(dense, outer, inner, order)
        if isinstance(want, str):  # the reference gives a list
            assert got == want
        elif isinstance(got, tuple):
            assert got[0] == want[0] == "ConvergenceError"


def exact_multiply(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for k, bk in enumerate(b[: order + 1 - i]):
            if ai and bk:
                out[i + k] += Fraction(ai) * Fraction(bk)
    return out


def exact_compose(outer, inner, order):
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for j, cj in enumerate(outer[: order + 1]):
        if j:
            power = exact_multiply(power, inner, order)
        for i in range(order + 1):
            out[i] += Fraction(cj) * power[i]
    return out


# no negative entries, so no two terms cancel; about half of them exact
# zeros and the rest in [1, 1e200], so powers overflow but nothing underflows
_nonnegative = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e200)),
                        max_size=18)


@settings(max_examples=200, deadline=None)
@given(outer=_nonnegative, inner=_nonnegative, order=st.integers(0, 16))
@example(outer=[1.0, 0.0, 0.0, 1.0], inner=[1e200], order=3)
@example(outer=[1.0] * 5, inner=[1e200, 0.0, 1.0], order=4)
@example(outer=[0.0, 0.0, 1.0, 1.0], inner=[1e200, 0.0, 1.0], order=4)
def test_products_without_cancellation_match_exact_rationals(outer, inner, order):
    # with no both-sign overflow there is nothing to refuse: each finite
    # coefficient is within (order + 2)^2 rounding errors of the exact one,
    # and inf only where the exact one reaches the float maximum, less that
    inner = [0.0, *inner]
    bound = (order + 2) ** 2 * sys.float_info.epsilon
    top = Fraction(sys.float_info.max) * (1 - Fraction(bound))
    for got, want in ((series_multiply(outer, inner, order), exact_multiply(outer, inner, order)),
                      (series_compose(outer, inner, order), exact_compose(outer, inner, order))):
        assert len(got) == order + 1
        for g, w in zip(got, want):
            if g == math.inf:
                assert w >= top
            else:
                assert abs(Fraction(g) - w) <= bound * w


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.integers(-10**308, 10**308), max_size=10),
       b=st.lists(st.integers(-10**308, 10**308), max_size=10), order=st.integers(0, 8))
@example(a=[10**300], b=[10**300], order=0)
@example(a=[1, 2], b=[], order=3)
def test_int_coefficients_act_as_their_floats(a, b, order):
    # a product of two ints past the float range is inf, as for floats, not
    # OverflowError, and every coefficient that comes back is a float
    fa, fb = [float(c) for c in a], [float(c) for c in b]
    truncated = series_truncate(a, order)
    assert truncated == series_truncate(fa, order)
    assert all(type(c) is float for c in truncated)
    assert outcome(series_multiply, a, b, order) == outcome(series_multiply, fa, fb, order)
    assert outcome(series_compose, a, [0, *b], order) == outcome(
        series_compose, fa, [0.0, *fb], order)


# Reference loops for the series builders, in their plainest form: weights
# read from a full list, j as an int, the odd weights sliced per
# coefficient, every running-power term added.  The weight lists and
# series_compose must give the same floats, the sign of a zero included;
# the decay recurrence, which rounds differently, meets the same 60-digit
# bound.
def parent_parity_series(order, first, ratio):
    c = [0.0] * (order + 1)
    if order >= first:
        c[first] = 1.0
    term = 1.0
    for n in range(1, (order - first) // 2 + 1):
        term *= ratio(n)
        c[first + 2 * n] = term
    return c


def parent_coordinate_series(kv, order):
    k2 = kv * kv
    return parent_parity_series(order, 1, lambda n: -k2 * (2 * n - 1) ** 2 / (2 * n * (2 * n + 1)))


def parent_sqrt_weight_series(kv, order):
    k2 = kv * kv
    return parent_parity_series(order, 0, lambda m: k2 * (0.5 - (m - 1)) / m)


def parent_exp_kappa_taylor(kv, order):
    du = [j * c for j, c in enumerate(parent_coordinate_series(kv, order))]
    g = [0.0] * (order + 1)
    g[0] = 1.0
    for n in range(1, order + 1):
        total = 0.0
        for d, gj in zip(du[1 : n + 1 : 2], g[n - 1 :: -2]):
            total += d * gj
        g[n] = total / n
    return g


def parent_decay_series_solution(kv, order):
    w = parent_sqrt_weight_series(kv, order)
    a = [0.0] * (order + 1)
    a[0] = 1.0
    for p in range(order):
        total = -a[p]
        for m in range(1, p // 2 + 1):
            j = p - 2 * m + 1
            total -= w[2 * m] * j * a[j]
        a[p + 1] = total / (p + 1)
    return a


def parent_series_compose(outer, inner, order):
    # every term of the running power added to out, its zeros included
    outer = [float(c) for c in outer[: order + 1]]
    inner = [float(c) for c in inner[: order + 1]]
    terms = [(k, bk) for k, bk in enumerate(inner) if bk != 0.0]
    out = [0.0] * (order + 1)
    power = [1.0] + [0.0] * order
    for j, cj in enumerate(outer):
        if j:
            product = [0.0] * (order + 1)
            for i, ai in enumerate(power):
                if ai == 0.0:
                    continue
                for k, bk in terms:
                    if k > order - i:
                        break
                    product[i + k] += ai * bk
            power = product
        if cj != 0.0:
            for i in range(j, order + 1):
                out[i] += cj * power[i]
    return out


def hex_outcome(fn, *args):
    """float.hex of each coefficient, so that the sign of a zero counts, or
    the type and message of the error raised."""
    try:
        got = fn(*args)
    except ConvergenceError as e:
        return ("ConvergenceError", str(e))
    return [c.hex() for c in getattr(got, "coefficients", got)]


def parent_hex_outcome(coeffs):
    refused = reference_outcome(lambda: coeffs)
    return refused if isinstance(refused, tuple) else [c.hex() for c in coeffs]


_SERIES_KAPPAS = st.floats(-0.99, 0.99) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])


@settings(max_examples=150, deadline=None)
@given(kv=_SERIES_KAPPAS, order=st.integers(0, MAX_ORDER))
@example(kv=0.0, order=64)
@example(kv=1e-300, order=48)
@example(kv=-0.95, order=64)
def test_series_builders_match_the_parent_loops_bit_for_bit(kv, order):
    assert hex_outcome(sqrt_weight_series, Kappa(kv), order) == parent_hex_outcome(
        parent_sqrt_weight_series(kv, order))


def mp_decay_coefficients(kv, order):
    """The decay recurrence n A_n = -A_{n-1} - sum_m C(1/2, m) k^(2m)
    (n-2m) A_{n-2m} at 60 digits, and the S_n of the same recurrence with
    every term taken positive, so that S_n bounds the sum of the magnitudes
    of the terms that make A_n."""
    with mp.workdps(60):
        k2 = mp.mpf(kv) ** 2
        w = [mp.mpf(1)]
        for m in range(1, order // 2 + 1):
            w.append(w[-1] * k2 * (mp.mpf(1) / 2 - (m - 1)) / m)
        value, size = [mp.mpf(1)], [mp.mpf(1)]
        for p in range(order):
            total, mag = -value[p], size[p]
            for m in range(1, p // 2 + 1):
                j = p - 2 * m + 1
                total -= w[m] * j * value[j]
                mag += abs(w[m]) * j * size[j]
            value.append(total / (p + 1))
            size.append(mag / (p + 1))
        return value, size


@settings(max_examples=150, deadline=None)
@given(kv=_SERIES_KAPPAS, order=st.integers(0, MAX_ORDER))
@example(kv=0.0, order=64)
@example(kv=1e-300, order=48)
@example(kv=-0.95, order=64)
@example(kv=0.43, order=48)
@example(kv=0.99, order=64)
@example(kv=-0.99, order=64)
def test_decay_series_solution_is_within_rounding_of_mpmath(kv, order):
    # |a_n - A_n| <= n eps S_n against the 60-digit recurrence; the parent
    # loop, which multiplies w_2m j a_j where the new one keeps d_j = j a_j,
    # meets the same bound on the same draws.  Over 158 kappas at order 64
    # the worst ratio to the bound was about 0.21 for both
    value, size = mp_decay_coefficients(kv, order)
    eps = sys.float_info.epsilon
    for got in (decay_series_solution(Kappa(kv), order).coefficients,
                parent_decay_series_solution(kv, order)):
        assert len(got) == order + 1
        for n, (a, v, sz) in enumerate(zip(got, value, size)):
            assert abs(mp.mpf(a) - v) <= n * eps * sz, (n, a, v)


@settings(max_examples=100, deadline=None)
@given(kv=_SERIES_KAPPAS)
@example(kv=0.0)
@example(kv=-0.95)
@example(kv=0.99)
def test_decay_series_prefix_is_the_series_of_lower_order(kv):
    # the first n + 1 coefficients do not depend on the order asked for,
    # bit for bit
    k = Kappa(kv)
    full = hex_outcome(decay_series_solution, k, MAX_ORDER)
    for order in range(MAX_ORDER + 1):
        assert hex_outcome(decay_series_solution, k, order) == full[: order + 1]


def mp_exp_kappa_coefficients(kv, order):
    """The Maclaurin coefficients G_n of exp_k at 60 digits, from the product
    form G_n = prod (1 - k^2 m^2) / n! over m = n - 2, n - 4, ... >= 0, and
    the S_n that take |1 - k^2 m^2| up to 1 + k^2 m^2."""
    with mp.workdps(60):
        k2 = mp.mpf(kv) ** 2
        value, size = [mp.mpf(1)] * min(order + 1, 2), [mp.mpf(1)] * min(order + 1, 2)
        for n in range(2, order + 1):
            m = n - 2
            value.append(value[m] * (1 - k2 * m * m) / ((n - 1) * n))
            size.append(size[m] * (1 + k2 * m * m) / ((n - 1) * n))
        return value, size


@settings(max_examples=150, deadline=None)
@given(kv=_SERIES_KAPPAS, order=st.integers(0, MAX_ORDER))
@example(kv=0.0, order=64)
@example(kv=1e-300, order=48)
@example(kv=-0.95, order=64)
@example(kv=0.99, order=64)
@example(kv=1 / 3, order=64)
def test_exp_kappa_taylor_is_within_rounding_of_mpmath(kv, order):
    # |g_n - G_n| <= n eps S_n against the 60-digit coefficients; the
    # parent's O(order^2) convolution meets the same bound on the same draws
    value, size = mp_exp_kappa_coefficients(kv, order)
    eps = sys.float_info.epsilon
    for got in (exp_kappa_taylor(Kappa(kv), order).coefficients,
                parent_exp_kappa_taylor(kv, order)):
        assert len(got) == order + 1
        for n, (g, v, sz) in enumerate(zip(got, value, size)):
            assert abs(mp.mpf(g) - v) <= n * eps * sz, (n, g, v)


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("sign", [1, -1])
def test_exp_kappa_taylor_has_exact_positive_zeros_at_kappa_one_over_m(m, sign):
    # at k = 1/m the part of exp_k with m's parity is a polynomial of degree
    # m: its coefficients past x^m are +0.0, and none before is zero.  The
    # parent's convolution gives +0.0 there through x^26 and, from x^28 on,
    # leftovers of cancellation within its rounding bound; none is -0.0
    got = exp_kappa_taylor(Kappa(sign / m), MAX_ORDER).coefficients
    parent = parent_exp_kappa_taylor(sign / m, MAX_ORDER)
    for n in range(m % 2, MAX_ORDER + 1, 2):
        if n > m:
            assert got[n].hex() == "0x0.0p+0", n
            assert parent[n].hex() == "0x0.0p+0" or n >= 28, n
        else:
            assert got[n] != 0.0, n
    assert "-0x0.0p+0" not in (c.hex() for c in parent)


def test_exp_taylor_and_decay_series_read_nothing_of_each_other(monkeypatch):
    # the two routes criterion 3 compares stay independent: each builder
    # gives the same coefficients with the other's parts made to raise
    def refuse(*args):
        raise AssertionError("the other route was read")

    for kv, order in ((0.43, 48), (-0.95, 64), (0.5, 16), (0.0, 8)):
        k = Kappa(kv)
        want_exp = hex_outcome(exp_kappa_taylor, k, order)
        want_decay = hex_outcome(decay_series_solution, k, order)
        with monkeypatch.context() as mpatch:
            mpatch.setattr(series, "_sqrt_weights", refuse)
            mpatch.setattr(series, "decay_series_solution", refuse)
            assert hex_outcome(exp_kappa_taylor, k, order) == want_exp
        with monkeypatch.context() as mpatch:
            mpatch.setattr(series, "exp_kappa_taylor", refuse)
            mpatch.setattr(series, "_coordinate_series", refuse)
            assert hex_outcome(decay_series_solution, k, order) == want_decay


def mp_compose_with_coordinate(a, kv, order):
    """The x-coefficients of sum_j a_j u(x)^j, u = arcsinh(k x)/k, composed
    at 60 digits from the running power of u's own series, and for each the
    sum of the magnitudes of its terms a_j [x^i] u^j."""
    with mp.workdps(60):
        k2 = mp.mpf(kv) ** 2
        u = [mp.mpf(0)] * (order + 1)
        c = mp.mpf(1)
        for m in range((order + 1) // 2):
            if m:
                c *= -k2 * (2 * m - 1) ** 2 / (2 * m * (2 * m + 1))
            u[2 * m + 1] = c
        value, size = [mp.mpf(0)] * (order + 1), [mp.mpf(0)] * (order + 1)
        power = [mp.mpf(1)] + [mp.mpf(0)] * order
        for j, aj in enumerate(a[: order + 1]):
            if j:
                power = [mp.fsum(power[i - k] * u[k] for k in range(1, i + 1))
                         for i in range(order + 1)]
            for i in range(j, order + 1):
                value[i] += aj * power[i]
                size[i] += abs(aj * power[i])
        return value, size


@settings(max_examples=100, deadline=None)
@given(kv=_SERIES_KAPPAS, order=st.integers(0, MAX_ORDER), n=st.integers(0, 20))
@example(kv=0.0, order=64, n=20)
@example(kv=-0.0, order=64, n=20)
@example(kv=1e-300, order=64, n=20)
@example(kv=-1e-300, order=64, n=20)
@example(kv=0.99, order=64, n=20)
@example(kv=-0.99, order=64, n=20)
def test_picard_iterate_in_x_matches_an_mpmath_composition(kv, order, n):
    # coefficient i is within 2 (i + 1) (eps S_i + eta A_i) of the 60-digit
    # composition, where S_i sums the magnitudes of its terms, A_i sums
    # |a_j| over j <= i, for terms that fall below the normal range, and eta
    # is the smallest subnormal; the parent's running power of the
    # coordinate series meets the same bound on the same draws
    k = Kappa(kv)
    it = picard_iterate(k, n)
    a = it.coefficients
    value, size = mp_compose_with_coordinate(a, kv, order)
    eps, eta = sys.float_info.epsilon, math.ulp(0.0)
    bounds = [2 * (i + 1) * (eps * s + eta * math.fsum(map(abs, a[: i + 1])))
              for i, s in enumerate(size)]
    for got in (picard_iterate_in_x(it, k, order).coefficients,
                parent_series_compose(a, parent_coordinate_series(kv, order), order)):
        assert len(got) == order + 1
        for i, (g, v, b) in enumerate(zip(got, value, bounds)):
            assert abs(mp.mpf(g) - v) <= b, (i, g, v)


def test_arcsinh_power_table_is_built_once_for_every_kappa():
    # the table holds no kappa: one build serves every kappa and order, and
    # importing the module builds nothing
    series._arcsinh_power_columns.cache_clear()
    for kv in (0.0, -0.5, 0.99, 1e-300):
        k = Kappa(kv)
        for order in (0, 16, MAX_ORDER):
            picard_iterate_in_x(picard_iterate(k, 16), k, order)
    info = series._arcsinh_power_columns.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    code = ("import kappamath.series as s\n"
            "print(s._arcsinh_power_columns.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


@settings(max_examples=300, deadline=None)
@given(outer=_coefficients, inner=_coefficients, order=st.integers(0, MAX_ORDER),
       sign=st.sampled_from([0.0, -0.0]))
# exact zeros, and a -0.0 constant term
@example(outer=[2.0, -1.0], inner=[3.0], order=4, sign=0.0)
@example(outer=[2.0, 1.0], inner=[], order=3, sign=-0.0)
@example(outer=[0.0, -0.0, 1.0], inner=[-0.0, 2.0], order=5, sign=0.0)
# an overflowed power term meets a zero of the inner series, or of outer
@example(outer=[1.0, 0.0, 0.0, 1.0], inner=[1e200], order=3, sign=0.0)
@example(outer=[1.0] * 5, inner=[1e200, 0.0, 1.0], order=4, sign=0.0)
@example(outer=[0.0, 0.0, 1.0, 1.0], inner=[1e200, 0.0, 1.0], order=4, sign=0.0)
# terms that overflow with both signs
@example(outer=[1e300, 1e300, 1e300], inner=[1e300, -1e300], order=2, sign=0.0)
@example(outer=[1.0, 1e300, -1e300], inner=[1e300, 1e300], order=4, sign=0.0)
def test_series_compose_matches_the_parent_loop_bit_for_bit(outer, inner, order, sign):
    inner = [sign, *inner]
    assert hex_outcome(series_compose, outer, inner, order) == parent_hex_outcome(
        parent_series_compose(outer, inner, order))
