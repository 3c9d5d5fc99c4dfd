import math

import pytest

from kappamath import ode
from kappamath import (
    DecayProblem,
    DomainError,
    Kappa,
    LogisticProblem,
    ab2_solve,
    analytic_trace,
    closed_form_decay,
    euler_solve,
    logistic_closed_form,
    logistic_residual,
    quadrature_decay,
    residual_decay,
    rk4_solve,
    slope_field,
    substitution_decay,
)

# frozen from 40-digit mpmath evaluation of exp_k(-x)
DECAY_09_AT_1 = 0.40708183717417998691
DECAY_09_AT_01 = 0.90495913616047530902
LOGISTIC_09_AT_1 = 0.71069071718549366804


def decay(kv=0.9, **kw):
    return DecayProblem(Kappa(kv), **kw)


def test_problem_validation():
    with pytest.raises(DomainError):
        decay(beta=0.0)
    with pytest.raises(DomainError):
        decay(beta=-1.0)
    with pytest.raises(DomainError):
        decay(x_max=0.0)
    with pytest.raises(DomainError):
        decay(f0=math.nan)
    with pytest.raises(DomainError):
        LogisticProblem(Kappa(0.5), f0=1.0)


def test_closed_form_decay_values():
    p = decay()
    assert closed_form_decay(p, 0.0) == 1.0
    assert closed_form_decay(p, 0.1) == pytest.approx(DECAY_09_AT_01, rel=1e-15)
    assert closed_form_decay(p, 1.0) == pytest.approx(DECAY_09_AT_1, rel=1e-15)
    p0 = decay(0.0)
    assert closed_form_decay(p0, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)


def test_closed_form_decay_past_overflow():
    # beta x overflows to inf at x = 2, where exp_k(-beta x) has the limit 0
    p = decay(0.5, beta=1e308, f0=-3.0, x_max=2.0)
    assert closed_form_decay(p, 1.0) == 0.0
    assert closed_form_decay(p, 2.0) == 0.0
    assert math.copysign(1.0, closed_form_decay(p, 2.0)) == -1.0
    with pytest.raises(DomainError):
        closed_form_decay(p, math.nan)


def test_quadrature_decay_values():
    p = decay()
    assert quadrature_decay(p, 1.0) == pytest.approx(DECAY_09_AT_1, abs=1e-11)
    assert quadrature_decay(p, 0.0) == 1.0
    assert quadrature_decay(decay(0.0), 2.0) == pytest.approx(math.exp(-2), rel=1e-11)
    with pytest.raises(DomainError):
        quadrature_decay(p, -0.5)


def test_substitution_decay_values():
    p = decay()
    assert substitution_decay(p, 1.0) == pytest.approx(DECAY_09_AT_1, rel=1e-14)
    assert substitution_decay(p, 0.0) == 1.0
    assert substitution_decay(decay(0.0), 1.0) == pytest.approx(math.exp(-1), rel=1e-15)


@pytest.mark.parametrize("kv", [0.0, 0.3, 0.75, 0.9])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_three_analytic_routes_agree(kv, beta):
    p = decay(kv, beta=beta, x_max=10.0)
    for x in [0.0, 0.5, 2.0, 7.0, 10.0]:
        cf = closed_form_decay(p, x)
        assert substitution_decay(p, x) == pytest.approx(cf, rel=1e-13)
        assert quadrature_decay(p, x) == pytest.approx(cf, rel=1e-10)


# (kappa, beta, x) where adaptive Simpson at tol 1e-12 missed the relative
# 1e-10 of acceptance criterion 5 by up to 60%
QUADRATURE_HARD_CASES = [
    (-0.5512826353806172, 1.0780968668975603, 0.9753015719555619),
    (-0.4126007639416842, 1.1605831031722118, 1.2104857518557555),
    (-0.5881006423409875, 0.8006732865146404, 1.2310077094355798),
]


@pytest.mark.parametrize("kv,beta,x", QUADRATURE_HARD_CASES)
def test_analytic_routes_agree_on_hard_quadrature_inputs(kv, beta, x):
    p = decay(kv, beta=beta, x_max=10.0)
    values = [closed_form_decay(p, x), quadrature_decay(p, x),
              substitution_decay(p, x)]
    assert max(values) - min(values) <= 1e-10 * max(values)


def test_residual_of_closed_form_is_tiny():
    p = decay()
    for x in [0.0, 0.5, 2.0, 5.0]:
        f = closed_form_decay(p, x)
        dfdx = -p.beta * f * p.weight(x)  # analytic derivative
        assert abs(residual_decay(p, f, dfdx, x)) < 1e-12


def test_residual_flags_non_solutions():
    p = decay(beta=1.0)
    assert residual_decay(p, 1.0, 0.0, 0.0) == 1.0
    p0 = decay(0.0)
    x = 1.3
    assert residual_decay(p0, math.exp(-x), -math.exp(-x), x) == 0.0


def test_slope_field_nodes():
    grid = slope_field(decay(), [0.0], [1.0])
    assert grid == [(0.0, 1.0, -1.0)]
    assert slope_field(decay(0.0), [1.0], [1.0])[0][2] == -1.0
    assert slope_field(decay(0.75), [1.0], [1.0])[0][2] == pytest.approx(-0.8, rel=1e-15)


def test_slope_field_ordering_and_validation():
    nodes = slope_field(decay(), [0.0, 1.0], [0.0, 0.5])
    assert [(n[0], n[1]) for n in nodes] == [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]
    with pytest.raises(DomainError):
        slope_field(decay(), [], [1.0])


def test_trace_grid_lengths():
    assert len(euler_solve(decay(x_max=5.0), 0.01).xs) == 501
    assert len(rk4_solve(decay(x_max=1.0), 0.1).xs) == 11
    assert len(analytic_trace(decay(x_max=1.0), 0.1).xs) == 11


@pytest.mark.parametrize("solver", [euler_solve, ab2_solve, rk4_solve])
def test_step_size_validation(solver):
    with pytest.raises(DomainError):
        solver(decay(), -1.0)
    with pytest.raises(DomainError):
        solver(decay(), 0.0)


def test_grid_bounded_by_max_points(monkeypatch):
    # 1/h = MAX_POINTS steps make MAX_POINTS + 1 samples; a span/h that
    # overflows to inf is refused the same way, before any list is built
    for solver in (euler_solve, ab2_solve, rk4_solve, analytic_trace):
        with pytest.raises(DomainError):
            solver(decay(x_max=1.0), 1.0 / ode.MAX_POINTS)
        with pytest.raises(DomainError):
            solver(decay(x_max=1e300), 1e-10)
    monkeypatch.setattr(ode, "MAX_POINTS", 11)
    assert len(rk4_solve(decay(x_max=1.0), 0.1).xs) == 11
    with pytest.raises(DomainError):
        rk4_solve(decay(x_max=1.0), 1.0 / 11)


def test_grid_drops_a_last_point_that_overflows():
    # 2 h rounds past the float maximum: the grid ends at h, not at inf
    h = 8.988465674401464e307
    p = decay(0.5, x_max=1.7976931348623157e308)
    for solver in (euler_solve, rk4_solve, analytic_trace):
        assert solver(p, h).xs == (0.0, h)
    # 3 h as well, and then two steps remain for ab2; on the logistic grid
    # it is the sixth point, 6 h - x_max
    h = 5.992310450140284e307
    assert rk4_solve(p, h).xs == ab2_solve(p, h).xs == (0.0, h, 2.0 * h)
    lp = LogisticProblem(Kappa(0.5), x_max=1.7976931348623157e308)
    xs = rk4_solve(lp, h).xs
    assert len(xs) == 6 and all(math.isfinite(x) for x in xs)


@pytest.mark.parametrize("problem", [DecayProblem, LogisticProblem])
@pytest.mark.parametrize("x_max,h", [
    (5.0, 0.1), (1.0, 0.1), (0.1 * (3 - 7e-10), 0.1), (1e308, 1e307), (1e300, 3e298)])
def test_finite_grids_unchanged(problem, x_max, h):
    # uniformly spaced from x_start, floor(span/h + 1e-9) steps
    p = problem(Kappa(0.5), x_max=x_max)
    xs = euler_solve(p, h).xs
    n = math.floor(x_max / h - p.x_start / h + 1e-9)
    if x_max - p.x_start < math.inf:
        assert xs == tuple(p.x_start + i * h for i in range(n + 1))
    else:
        assert xs == tuple(2.0 * (0.5 * p.x_start + i * 0.5 * h) for i in range(n + 1))


def test_euler_single_steps():
    tr = euler_solve(decay(0.0, x_max=0.5), 0.5)
    assert tr.fs[1] == pytest.approx(0.5)
    tr = euler_solve(decay(0.9, x_max=0.1), 0.1)
    assert tr.fs[1] == pytest.approx(0.9)  # weight is 1 at x = 0


def test_euler_accuracy_and_first_order_scaling():
    p = decay(0.9, x_max=5.0)
    def max_err(h):
        tr = euler_solve(p, h)
        return max(abs(f - closed_form_decay(p, x)) for x, f in tr.samples)
    e1 = max_err(0.01)
    assert abs(euler_solve(p, 0.01).fs[-1] - closed_form_decay(p, 5.0)) < 0.02 * closed_form_decay(p, 5.0) + 1e-3
    ratio = max_err(0.02) / e1
    assert 1.6 < ratio < 2.4  # error halves when h halves


def test_ab2_bootstrap_matches_rk4_first_step():
    p = decay()
    h = 0.05
    assert ab2_solve(p, h).fs[1] == rk4_solve(p, h).fs[1]


def test_ab2_classical_accuracy():
    p = decay(0.0, x_max=1.0)
    tr = ab2_solve(p, 0.1)
    assert abs(tr.fs[-1] - math.exp(-1)) < 3e-3


def test_ab2_second_order_scaling():
    p = decay(0.9, x_max=5.0)
    def max_err(h):
        tr = ab2_solve(p, h)
        return max(abs(f - closed_form_decay(p, x)) for x, f in tr.samples)
    ratio = max_err(0.02) / max_err(0.01)
    assert 3.2 < ratio < 4.8  # order 2 within +-20%


def test_rk4_accuracy():
    p = decay(0.9, x_max=0.1)
    assert abs(rk4_solve(p, 0.1).fs[-1] - DECAY_09_AT_01) < 1e-6
    p0 = decay(0.0, x_max=1.0)
    assert abs(rk4_solve(p0, 0.1).fs[-1] - math.exp(-1)) < 1e-6


def test_rk4_fourth_order_scaling():
    p = decay(0.9, x_max=5.0)
    def max_err(h):
        tr = rk4_solve(p, h)
        return max(abs(f - closed_form_decay(p, x)) for x, f in tr.samples)
    ratio = max_err(0.02) / max_err(0.01)
    assert 12.0 < ratio < 20.0  # order 4 within +-25%


def test_decay_traces_monotone_and_positive():
    p = decay(0.9, x_max=5.0)
    for solver in (euler_solve, ab2_solve, rk4_solve):
        tr = solver(p, 0.1)
        assert all(b < a for a, b in zip(tr.fs, tr.fs[1:]))
        assert all(f > 0 for f in tr.fs)


# Textbook steppers, one p.rhs call per stage in the order the solvers make
# them, on the solver's own grid.
def euler_oracle(p, xs, h):
    fs = [p.initial_value]
    for x in xs[:-1]:
        fs.append(fs[-1] + h * p.rhs(x, fs[-1]))
    return fs


def rk4_oracle_step(p, x, f, h):
    k1 = p.rhs(x, f)
    k2 = p.rhs(x + 0.5 * h, f + 0.5 * h * k1)
    k3 = p.rhs(x + 0.5 * h, f + 0.5 * h * k2)
    k4 = p.rhs(x + h, f + h * k3)
    return f + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def rk4_oracle(p, xs, h):
    fs = [p.initial_value]
    for x in xs[:-1]:
        fs.append(rk4_oracle_step(p, x, fs[-1], h))
    return fs


def ab2_oracle(p, xs, h):
    fs = [p.initial_value]
    g_prev = p.rhs(xs[0], fs[0])
    fs.append(rk4_oracle_step(p, xs[0], fs[0], h))  # bootstrap
    for x in xs[1:-1]:
        g = p.rhs(x, fs[-1])
        fs.append(fs[-1] + h * (3.0 * g - g_prev) / 2.0)
        g_prev = g
    return fs


def counting(cls, *args, **kw):
    calls = []

    # no __slots__ of its own: Record takes its fields from the base class
    class Counting(cls):
        def rhs(self, x, f):
            calls.append((x, f))
            return super().rhs(x, f)

    return Counting(*args, **kw), calls


ORACLE_PROBLEMS = (
    [(DecayProblem, Kappa(kv), beta) for kv in (0.0, 0.5, -0.9)
     for beta in (0.5, 2.0, 1e300)]
    + [(LogisticProblem, Kappa(kv), f0) for kv in (0.0, 0.5, 0.9)
       for f0 in (0.5, 0.1, 0.9)])


@pytest.mark.parametrize("solver,oracle,calls_per_step,extra_calls", [
    (euler_solve, euler_oracle, 1, 0),
    (ab2_solve, ab2_oracle, 1, 4),
    (rk4_solve, rk4_oracle, 4, 0)], ids=["euler", "ab2", "rk4"])
@pytest.mark.parametrize("h", [0.5, 0.1, 0.037])
@pytest.mark.parametrize("cls,k,arg", ORACLE_PROBLEMS)
def test_solvers_match_textbook_oracles(solver, oracle, calls_per_step,
                                        extra_calls, h, cls, k, arg):
    # repr compares bit for bit and lets the nan of an overflowing trace
    # (beta = 1e300 at kappa = 0) equal itself
    p, calls = counting(cls, k, arg, x_max=2.0)
    tr = solver(p, h)
    n = len(tr.xs) - 1
    assert tr.xs == tuple(p.x_start + i * h for i in range(n + 1))
    assert len(calls) == calls_per_step * n + extra_calls
    q, oracle_calls = counting(cls, k, arg, x_max=2.0)
    assert repr(tr.fs) == repr(tuple(oracle(q, tr.xs, h)))
    assert repr(calls) == repr(oracle_calls)


def test_decay_rhs_finite_where_beta_f_overflows():
    # beta * f overflows to inf and the weight at x = 5e306 is 0 in floating
    # point, but beta * weight(x) = 1/hypot(1/beta, k x) is not
    p = DecayProblem(Kappa(0.9), beta=1e308, x_max=1e308)
    assert p.rhs(5e306, 1e308) == pytest.approx(-1e308 / (0.9 * 5e306), rel=1e-15)
    # beta * f overflows against a finite weight
    p = DecayProblem(Kappa(0.9), beta=1e300, x_max=2.0)
    assert p.rhs(1.0, 1e10) == pytest.approx(-1e10 / 0.9, rel=1e-15)


def test_decay_rejects_beta_whose_slope_denominator_overflows():
    # 1/beta is inf, or hypot(1/beta, k x) overflows at large x; either way
    # the slope -f/hypot(1/beta, k x) would be -0 where the decay is real
    for beta in (5e-324, 5e-309, 6e-309, 5e-301):
        with pytest.raises(DomainError, match="beta too small"):
            decay(beta=beta, x_max=1e308)
    p = decay(beta=1e-300, x_max=1e308)
    for x in (0.0, 1e300, 1e308, 1.7976931348623157e308):
        slope = -p.beta * 1e308 * p.weight(x)
        assert p.rhs(x, 1e308) == pytest.approx(slope, rel=1e-15)


def test_logistic_closed_form_values():
    assert logistic_closed_form(LogisticProblem(Kappa(0.3)), 0.0) == 0.5
    lp0 = LogisticProblem(Kappa(0.0))
    assert logistic_closed_form(lp0, 1.0) == pytest.approx(1 / (1 + math.exp(-1)), rel=1e-15)
    lp9 = LogisticProblem(Kappa(0.9))
    assert logistic_closed_form(lp9, 1.0) == pytest.approx(LOGISTIC_09_AT_1, rel=1e-14)
    assert 0.0 < logistic_closed_form(lp9, -5.0) < logistic_closed_form(lp9, 5.0) < 1.0


def test_logistic_residual_small():
    assert abs(logistic_residual(LogisticProblem(Kappa(0.9)), 0.0)) < 1e-14
    assert abs(logistic_residual(LogisticProblem(Kappa(0.0)), 2.0)) < 1e-13
    assert abs(logistic_residual(LogisticProblem(Kappa(0.5)), -3.0)) < 1e-12


def test_logistic_trace_increasing_and_accurate():
    lp = LogisticProblem(Kappa(0.9), x_max=5.0)
    tr = rk4_solve(lp, 0.01)
    assert tr.xs[0] == -5.0 and tr.xs[-1] == pytest.approx(5.0)
    assert all(b > a for a, b in zip(tr.fs, tr.fs[1:]))
    err = max(abs(f - logistic_closed_form(lp, x)) for x, f in tr.samples)
    assert err < 1e-8


def test_general_f0_logistic_closed_form_solves_ode():
    lp = LogisticProblem(Kappa(0.6), f0=0.2)
    assert logistic_closed_form(lp, 0.0) == pytest.approx(0.2, rel=1e-15)
    for x in [-2.0, 0.7, 4.0]:
        assert abs(logistic_residual(lp, x)) < 1e-12
