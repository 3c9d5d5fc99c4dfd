import math

import mpmath as mp
import pytest

from kappamath import (
    DecayProblem,
    DomainError,
    FloorError,
    Kappa,
    LogisticProblem,
    asymptote_check,
    convergence_order,
    error_table,
    picard_vs_series,
    series_error_curve,
)
from kappamath.harness import ROUNDOFF_FLOOR


def decay(kv=0.9, **kw):
    return DecayProblem(Kappa(kv), **kw)


def test_error_table_rk4_bound():
    report, = error_table(decay(x_max=5.0), ["rk4"], 0.01)
    assert report.method == "rk4"
    assert report.max_error < 1e-9
    assert report.max_error >= report.rms_error >= 0.0


def test_error_table_euler_consistency():
    p = decay(0.0, x_max=2.0)
    errs = [error_table(p, ["euler"], h)[0].max_error for h in (0.1, 0.05, 0.025)]
    assert errs[0] > errs[1] > errs[2]


def test_error_table_logistic_rk4():
    lp = LogisticProblem(Kappa(0.9), x_max=5.0)
    report, = error_table(lp, ["rk4"], 0.01)
    assert report.max_error < 1e-8


def test_error_table_sorted_and_validated():
    reports = error_table(decay(x_max=1.0), ["rk4", "euler"], 0.1)
    assert [r.method for r in reports] == ["euler", "rk4"]
    with pytest.raises(DomainError):
        error_table(decay(), ["simpson"], 0.1)
    with pytest.raises(DomainError):
        error_table(decay(), [], 0.1)


@pytest.mark.parametrize("method,expected,tol", [
    ("euler", 1.0, 0.2), ("ab2", 2.0, 0.2), ("rk4", 4.0, 0.25)])
def test_convergence_orders(method, expected, tol):
    rep = convergence_order(decay(0.9, x_max=5.0), method, 0.1, 4)
    assert len(rep.step_sizes) == len(rep.max_errors)
    assert all(abs(o - expected) <= tol for o in rep.fitted_orders)


def test_error_table_max_error_keeps_nan():
    # rk4 blows up after the first step; max() alone would report the 0.0 of x = 0
    report, = error_table(decay(0.5, beta=1e300, x_max=2.0), ["rk4"], 0.5)
    assert report.abs_errors[0] == 0.0 and math.isnan(report.abs_errors[1])
    assert math.isnan(report.max_error) and math.isnan(report.rms_error)


def test_error_table_rms_of_huge_finite_errors():
    # the squares of errors near 1e199 overflow; the rms must not
    report, = error_table(decay(0.5, f0=1e200, x_max=2.0), ["euler"], 0.5)
    assert all(math.isfinite(e) for e in report.abs_errors)
    assert math.isfinite(report.rms_error)
    assert report.rms_error <= report.max_error
    with mp.workdps(50):
        squares = mp.fsum(mp.mpf(e) ** 2 for e in report.abs_errors)
        want = float(mp.sqrt(squares / len(report.abs_errors)))
    assert abs(report.rms_error - want) <= 1e-15 * want


def test_convergence_order_classical_rk4():
    rep = convergence_order(decay(0.0, x_max=5.0), "rk4", 0.2, 3)
    assert all(abs(o - 4.0) <= 0.25 for o in rep.fitted_orders)


def test_convergence_order_validation():
    with pytest.raises(DomainError):
        convergence_order(decay(), "euler", 0.1, 0)
    with pytest.raises(DomainError):
        convergence_order(decay(), "euler", 0.1, 9)
    with pytest.raises(DomainError):
        convergence_order(decay(), "newton", 0.1, 4)


def test_convergence_order_partial_ladder_on_floor():
    # the rk4 error reaches the round-off floor at level 7 of 8
    rep = convergence_order(decay(0.9, x_max=5.0), "rk4", 0.1, 8)
    assert rep.hit_floor
    assert len(rep.max_errors) == 7
    assert rep.max_errors[-1] < ROUNDOFF_FLOOR <= rep.max_errors[-2]


def test_convergence_order_floor_error_when_unfittable():
    # one rk4 step of 1e-3 is already exact to round-off
    p = decay(0.9, x_max=1e-3)
    with pytest.raises(FloorError):
        convergence_order(p, "rk4", 1e-3, 4)
    # a single level asks for no fit, so the floor only sets hit_floor
    rep = convergence_order(p, "rk4", 1e-3, 1)
    assert rep.hit_floor and rep.fitted_orders == () and len(rep.max_errors) == 1


def test_series_error_curve_behaviour():
    k = Kappa(0.9)
    curve = series_error_curve(k, [4, 8], [0.0, 0.1, 0.5])
    assert curve.abs_errors[4][0] == 0.0 and curve.abs_errors[8][0] == 0.0
    assert curve.abs_errors[8][2] < curve.abs_errors[4][2]
    assert curve.abs_errors[4][1] < 1e-5
    with pytest.raises(DomainError):
        series_error_curve(k, [], [0.1])


def test_asymptote_check_values():
    k = Kappa(0.75)
    with mp.workdps(40):
        want = float(mp.exp(mp.asinh(mp.mpf('-7.5')) / mp.mpf('0.75'))
                     * (2 * mp.mpf('0.75') * 10) ** (1 / mp.mpf('0.75')))
    assert asymptote_check(k, 10.0) == pytest.approx(want, rel=1e-12)
    assert abs(asymptote_check(k, 1e6) - 1.0) < 1e-4


def test_asymptote_check_monotone_toward_one():
    for kv in (0.25, 0.5, 0.75):
        vals = [asymptote_check(Kappa(kv), x) for x in (1e2, 1e3, 1e4)]
        gaps = [abs(v - 1.0) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]


def test_asymptote_check_validation():
    with pytest.raises(DomainError):
        asymptote_check(Kappa(0.0), 10.0)
    with pytest.raises(DomainError):
        asymptote_check(Kappa(0.5), -1.0)


def test_picard_vs_series_agreement():
    rep = picard_vs_series(Kappa(0.5), 4, [0.1])
    assert rep.max_coefficient_diff < 1e-12
    rep0 = picard_vs_series(Kappa(0.9), 0, [0.0, 1.0])
    assert rep0.max_coefficient_diff == 0.0
    assert rep0.pointwise_diffs == (0.0, 0.0)
    # both truncations approximate exp_k(-x); their gap at x = 0.2 is a few
    # units of the order-6 remainder, measured at 2.2e-6
    rep5 = picard_vs_series(Kappa(0.9), 5, [0.2])
    assert rep5.pointwise_diffs[0] < 1e-5


@pytest.mark.parametrize("n", [21, -1])
def test_picard_vs_series_index_validation(n):
    with pytest.raises(DomainError):
        picard_vs_series(Kappa(0.5), n, [0.1])
