import math
import os
import re
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kappamath import harness, ode
from kappamath import (
    ConvergenceError,
    DecayProblem,
    DomainError,
    Kappa,
    LogisticProblem,
    ab2_solve,
    analytic_trace,
    closed_form_decay,
    euler_solve,
    kappa_exp,
    logistic_closed_form,
    logistic_residual,
    quadrature_decay,
    residual_decay,
    rk4_solve,
    slope_field,
    substitution_decay,
    to_kappa_number,
)
from kappamath.core import _exp, _finite, _isfinite
from test_core import _mp_u, _ulps

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


def test_closed_form_names_are_the_problems_exact():
    # one body per closed form, called with no wrapper frame
    assert closed_form_decay is ode.closed_form_decay is DecayProblem.exact
    assert logistic_closed_form is ode.logistic_closed_form is LogisticProblem.exact


def test_closed_form_decay_values():
    p = decay()
    assert closed_form_decay(p, 0.0) == 1.0
    assert closed_form_decay(p, 0.1) == pytest.approx(DECAY_09_AT_01, rel=1e-15)
    assert closed_form_decay(p, 1.0) == pytest.approx(DECAY_09_AT_1, rel=1e-15)
    p0 = decay(0.0)
    assert closed_form_decay(p0, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)


def test_closed_form_decay_past_overflow():
    # beta x overflows to inf at x = 2, where exp_k(-beta x) has the limit 0,
    # and to -inf at x = -2, where it has the limit inf
    p = decay(0.5, beta=1e308, f0=-3.0, x_max=2.0)
    assert closed_form_decay(p, 1.0) == 0.0
    assert closed_form_decay(p, 2.0) == 0.0
    assert math.copysign(1.0, closed_form_decay(p, 2.0)) == -1.0
    assert closed_form_decay(p, -2.0) == -math.inf
    assert closed_form_decay(decay(0.5, beta=1e308, f0=3.0), -2.0) == math.inf
    with pytest.raises(DomainError):
        closed_form_decay(p, math.nan)


@pytest.mark.parametrize("f0", [0.0, -0.0])
def test_closed_form_decay_of_the_zero_solution(f0):
    # exp_k(-beta x) overflows to inf at x = -1000 (kappa = 0) and x = -1e300;
    # f0 = 0 keeps the zero solution there, with the sign of f0
    for kv, x in ((0.0, -1000.0), (0.5, -1e300), (0.5, 1.0)):
        got = closed_form_decay(decay(kv, f0=f0), x)
        assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, f0)
    # beta x overflows to -inf at a finite x < 0
    got = closed_form_decay(decay(0.0, beta=2.247116418577895e307, f0=f0), -8.0)
    assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, f0)
    for x in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            closed_form_decay(decay(f0=f0), x)


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


def test_residual_is_inf_where_its_terms_overflow_with_opposite_signs():
    # sqrt(1 + k^2 b^2 x^2) f' is 1e400 and beta f is -1e600: the residual,
    # about -1e600, rounds to -inf, not to inf - inf
    p = DecayProblem(Kappa(1e-300), beta=1e300, x_max=sys.float_info.max)
    assert residual_decay(p, -1e300, 1e300, 1e100) == -math.inf


def test_analytic_routes_refuse_points_outside_their_domain():
    with pytest.raises(DomainError):
        substitution_decay(decay(), -1.0)
    with pytest.raises(DomainError):
        logistic_closed_form(LogisticProblem(Kappa(0.5)), math.inf)


def test_residual_flags_non_solutions():
    p = decay(beta=1.0)
    assert residual_decay(p, 1.0, 0.0, 0.0) == 1.0
    p0 = decay(0.0)
    x = 1.3
    assert residual_decay(p0, math.exp(-x), -math.exp(-x), x) == 0.0


SWEEP_KAPPAS = [0.0, 1e-300, 0.1, 0.5, 0.9, 0.99, -0.5, -0.99]
SWEEP_MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.0, 10.0, 700.0, 710.0,
                    1e10, 1e100, 1e200, 1e300, sys.float_info.max]


@pytest.mark.parametrize("kv", SWEEP_KAPPAS)
def test_residuals_are_numbers_at_the_ends_of_the_float_range(kv):
    # sqrt(1 + k^2 b^2 x^2) overflows where k b x does: the decay residual
    # is then +-inf for f' != 0 and beta f for f' = 0; where exp_k(-x) is
    # inf the logistic residual takes its own f = 0, with slope 0, and is 0
    lp = LogisticProblem(Kappa(kv))
    for x in SWEEP_MAGNITUDES + [-m for m in SWEEP_MAGNITUDES]:
        r = logistic_residual(lp, x)
        assert isinstance(r, float) and abs(r) < 1e-11, (x, r)
    for beta in [0.5, 1.0, 1e10, 1e308]:
        p = decay(kv, beta=beta, x_max=sys.float_info.max)
        for x in SWEEP_MAGNITUDES:
            f = closed_form_decay(p, x)
            for dfdx in [-beta * f * p.weight(x), 0.0, 1.0, -1.0]:
                r = residual_decay(p, f, dfdx, x)
                assert isinstance(r, float) and not math.isnan(r), (beta, x, dfdx, r)
    assert logistic_residual(LogisticProblem(Kappa(0.0)), -710.0) == 0.0
    p = decay(0.9, beta=1e308, x_max=1e308)
    assert residual_decay(p, 1.0, -1.0, 1e300) == -math.inf
    assert residual_decay(p, 1.0, 0.0, 1e300) == 1e308


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


def test_slope_field_bounded_by_max_points(monkeypatch):
    # the node count is checked before any node is built
    with pytest.raises(DomainError):
        slope_field(decay(), [0.0] * 101, [1.0] * 9901)
    monkeypatch.setattr(ode, "MAX_POINTS", 12)
    assert len(slope_field(decay(), [0.0, 1.0, 2.0], [0.0] * 4)) == 12
    with pytest.raises(DomainError):
        slope_field(decay(), [0.0] * 13, [1.0])


class PlainDecay:
    """A user-defined problem with only the members the solvers read: the
    classical decay f' = -f on [0, 1]."""

    x_start = 0.0
    x_max = 1.0
    initial_value = 1.0

    def rhs(self, x, f):
        return -f

    def exact(self, x):
        return math.exp(-x)


def test_user_defined_problem_protocol():
    p = PlainDecay()
    for solver in (euler_solve, ab2_solve, rk4_solve):
        assert solver(p, 0.1) == solver(decay(0.0, x_max=1.0), 0.1)
    assert analytic_trace(p, 0.5).fs == (1.0, math.exp(-0.5), math.exp(-1.0))


class ReadCountingDecay(PlainDecay):
    """PlainDecay whose rhs is a property that counts its reads."""

    def __init__(self):
        self.reads = 0

    @property
    def rhs(self):
        self.reads += 1
        return super().rhs


@pytest.mark.parametrize("run", [
    lambda p: euler_solve(p, 0.1),
    lambda p: ab2_solve(p, 0.1),
    lambda p: rk4_solve(p, 0.1),
    lambda p: slope_field(p, [0.0, 0.5, 1.0], [1.0, 2.0])],
    ids=["euler", "ab2", "rk4", "slope_field"])
def test_a_solve_reads_rhs_once(run):
    p = ReadCountingDecay()
    assert run(p) == run(PlainDecay())
    assert p.reads == 1


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
    # 3 h as well, and then two steps remain for ab2, whose second step, as
    # rk4's, overflows with both signs; on the logistic grid it is the sixth
    # point, 6 h - x_max
    h = 5.992310450140284e307
    assert analytic_trace(p, h).xs == (0.0, h, 2.0 * h)
    for solver in (rk4_solve, ab2_solve):
        with pytest.raises(ConvergenceError, match=re.escape(f"x = {2.0 * h!r} ")):
            solver(p, h)
    lp = logistic_normal_start(1.7976931348623157e308)
    xs = rk4_solve(lp, h).xs
    assert len(xs) == 6 and all(math.isfinite(x) for x in xs)


def logistic_normal_start(x_max):
    # at kappa 0.99 and f0 = 1 - 1e-6 the start exact(-x_max) stays normal up
    # to the float maximum (about 2e-306 there), so a stepper takes it
    return LogisticProblem(Kappa(0.99), f0=0.999999, x_max=x_max)


@pytest.mark.parametrize("problem", [DecayProblem, LogisticProblem])
@pytest.mark.parametrize("x_max,h", [
    (5.0, 0.1), (1.0, 0.1), (0.1 * (3 - 7e-10), 0.1), (1e308, 1e307), (1e300, 3e298)])
def test_finite_grids_unchanged(problem, x_max, h):
    # uniformly spaced from x_start, floor(span/h + 1e-9) steps
    p = (DecayProblem(Kappa(0.5), x_max=x_max) if problem is DecayProblem
         else logistic_normal_start(x_max))
    xs = euler_solve(p, h).xs
    n = math.floor(x_max / h - p.x_start / h + 1e-9)
    if x_max - p.x_start < math.inf:
        assert xs == tuple(p.x_start + i * h for i in range(n + 1))
    else:
        assert xs == tuple(2.0 * (0.5 * p.x_start + i * 0.5 * h) for i in range(n + 1))


class Interval:
    """What a grid is built from: a problem's x_start and x_max."""

    def __init__(self, x_start, x_max):
        self.x_start = x_start
        self.x_max = x_max


def _uncached_grid(x0, x1, h):
    n = math.floor(x1 / h - x0 / h + 1e-9)
    if x1 - x0 < math.inf:
        xs = [x0 + i * h for i in range(n + 1)]
    else:
        xs = [2.0 * (0.5 * x0 + i * (0.5 * h)) for i in range(n + 1)]
    return tuple(x for x in xs if x < math.inf)


@st.composite
def _intervals(draw):
    """(x_start, x_max, h) of at most about 200 steps; x_start is 0, -0 or
    -x_max, and x_max reaches the float maximum, where the span overflows."""
    x1 = draw(st.floats(5e-324, sys.float_info.max) | st.sampled_from(
        [1.0, 5.0, sys.float_info.max, 0.75 * sys.float_info.max]))
    x0 = draw(st.sampled_from([0.0, -0.0, -x1]))
    h = (x1 / draw(st.floats(1.0, 200.0))) * (2.0 if x0 else 1.0)
    return x0, x1, h


@given(_intervals())
@example((-0.0, 1.0, 0.1))
@example((0.0, 1.0, 0.1))
@example((-sys.float_info.max, sys.float_info.max, 5.992310450140284e307))
@settings(max_examples=300, deadline=None)
def test_memo_grid_is_the_uncached_grid(interval):
    x0, x1, h = interval
    assume(0.0 < h < math.inf)
    p = Interval(x0, x1)
    try:
        xs = ode._grid(p, h)
    except DomainError:
        return
    # bit for bit, the sign of a zero included; a hit returns the same tuple
    assert list(map(float.hex, xs)) == list(map(float.hex, _uncached_grid(x0, x1, h)))
    assert ode._grid(p, h) is xs
    # the cache, keyed by value, serves the other sign of a zero start
    if x0 == 0.0:
        xs = ode._grid(Interval(-x0, x1), h)
        assert list(map(float.hex, xs)) == list(map(float.hex, _uncached_grid(-x0, x1, h)))


def test_grid_cache_holds_at_most_eight_of_a_thousand_step_sizes():
    # a sweep of step sizes on one interval keeps only the last 8 grids, so
    # what each new step size costs does not grow with the sweep; every grid
    # is bit for bit the uncached one
    ode._points.cache_clear()
    p = decay(x_max=1.0)
    hs = [1.0 / (1.0 + i / 7.0) for i in range(1000)]
    grids = [ode._grid(p, h) for h in hs]
    for h, xs in zip(hs, grids):
        assert list(map(float.hex, xs)) == list(map(float.hex, _uncached_grid(0.0, 1.0, h)))
    assert ode._points.cache_info().currsize == 8
    assert all(ode._grid(p, h) is xs for h, xs in zip(hs[-8:], grids[-8:]))
    assert ode._grid(p, hs[0]) is not grids[0]


def test_grid_cache_size_is_the_ladder_level_count():
    # a smaller cache would evict a ladder's grids or exact values before the
    # next method's ladder reads them
    assert ode._points.cache_info().maxsize == harness.MAX_LEVELS
    assert ode._exact_on.cache_info().maxsize == harness.MAX_LEVELS


@st.composite
def _odd_grids(draw):
    """(x_start, x_max, h) with about 2n + 1 points, n in [2, 200]; x_start is
    0, -x_max or any float below x_max, and x_max reaches the float maximum,
    where the span overflows, and the subnormals."""
    x1 = draw(st.floats(5e-324, sys.float_info.max) | st.sampled_from(
        [1.0, 5.0, 5e-324, 3e-323, 2.2250738585072014e-308, sys.float_info.max]))
    x0 = draw(st.sampled_from([0.0, -0.0, -x1])
              | st.floats(-sys.float_info.max, x1, exclude_max=True))
    steps = 2 * draw(st.integers(2, 200)) + draw(st.floats(0.0, 0.999))
    return x0, x1, x1 / steps - x0 / steps


@given(_odd_grids())
@example((0.0, 1.0, 0.1))
@example((-sys.float_info.max, sys.float_info.max, sys.float_info.max / 2))
# 3 points, which the rule leaves out: 2h is an invalid step there
@example((0.0, 4.634091051476445, 2.317045525969927))
@settings(max_examples=500, deadline=None)
def test_grid_of_twice_the_step_is_every_other_point(interval):
    # what lets the exact values of a grid of 2n + 1 >= 5 points reuse those
    # of the grid of 2h at its even points
    x0, x1, h = interval
    assume(0.0 < h < math.inf)
    p = Interval(x0, x1)
    try:
        xs = ode._grid(p, h)
    except DomainError:
        return
    if len(xs) < 5 or not len(xs) % 2:
        return
    assert list(map(float.hex, ode._grid(p, 2 * h))) == list(map(float.hex, xs[::2]))


@pytest.mark.parametrize("first", ["int", "float"])
def test_grid_of_an_int_start_and_step_is_the_float_grid(first):
    # either call may fill the cache: both get the same tuple of floats
    ode._points.cache_clear()
    calls = {"int": lambda: ode._grid(Interval(0, 2), 1),
             "float": lambda: ode._grid(Interval(0.0, 2.0), 1.0)}
    xs = calls[first]()
    assert list(map(type, xs)) == [float] * 3
    assert xs == (0.0, 1.0, 2.0)
    assert calls["float"]() is xs and calls["int"]() is xs


def test_grid_of_max_points_over_8_points_is_never_cached(monkeypatch):
    monkeypatch.setattr(ode, "MAX_POINTS", 80)
    ode._points.cache_clear()
    p = decay(x_max=1.0)
    # 9 points are cached
    xs = rk4_solve(p, 0.125).xs
    assert len(xs) == 9 and ode._points.cache_info().currsize == 1
    assert euler_solve(p, 0.125).xs is xs
    # 10 points, MAX_POINTS // 8, are built afresh on every call
    xs = rk4_solve(p, 1.0 / 9.0).xs
    assert len(xs) == 10 and ode._points.cache_info().currsize == 1
    ys = euler_solve(p, 1.0 / 9.0).xs
    assert ys == xs and ys is not xs
    assert ode._points.cache_info().currsize == 1


def test_threads_building_grids_on_different_intervals():
    # more threads than cores, switching often; the problems take turns, and
    # their 10 grids do not fit in the cache, so grids are evicted while
    # other threads read them
    problems = [decay(0.9, x_max=1.0), LogisticProblem(Kappa(0.4), x_max=1.0)]
    solvers = (euler_solve, ab2_solve, rk4_solve, analytic_trace)
    hs = (0.1, 0.05, 0.04, 0.025, 0.02)
    want = [[s(p, h) for s in solvers for h in hs] for p in problems]
    n_threads, rounds = (os.cpu_count() or 1) + 2, 10
    got = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def run(i):
        start.wait(timeout=60)
        p = problems[i % 2]
        for _ in range(rounds):
            got[i].append([s(p, h) for s in solvers for h in hs])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[i % 2]] * rounds for i in range(n_threads)]


def test_euler_single_steps():
    tr = euler_solve(decay(0.0, x_max=0.5), 0.5)
    assert tr.fs[1] == pytest.approx(0.5)
    tr = euler_solve(decay(0.9, x_max=0.1), 0.1)
    assert tr.fs[1] == pytest.approx(0.9)  # weight is 1 at x = 0


def test_euler_accuracy_and_first_order_scaling():
    p = decay(0.9, x_max=5.0)
    def max_err(h):
        tr = euler_solve(p, h)
        return max(abs(f - closed_form_decay(p, x)) for x, f in zip(tr.xs, tr.fs))
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
        return max(abs(f - closed_form_decay(p, x)) for x, f in zip(tr.xs, tr.fs))
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
        return max(abs(f - closed_form_decay(p, x)) for x, f in zip(tr.xs, tr.fs))
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
    p, calls = counting(cls, k, arg, x_max=2.0)
    xs = analytic_trace(p, h).xs  # the steppers' grid
    n = len(xs) - 1
    assert xs == tuple(p.x_start + i * h for i in range(n + 1))
    q, oracle_calls = counting(cls, k, arg, x_max=2.0)
    want = tuple(oracle(q, xs, h))
    nan_at = [x for x, f in zip(xs, want) if math.isnan(f)]
    if nan_at:  # a step overflows with both signs: beta = 1e300 at kappa = 0
        with pytest.raises(ConvergenceError, match=re.escape(f"x = {nan_at[0]!r} ")):
            solver(p, h)
    else:  # repr compares bit for bit
        tr = solver(p, h)
        assert tr.xs == xs
        assert repr(tr.fs) == repr(want)
    assert len(calls) == calls_per_step * n + extra_calls
    assert repr(calls) == repr(oracle_calls)


def test_decay_rhs_finite_where_beta_f_overflows():
    # beta * f overflows to inf and the weight at x = 5e306 is 0 in floating
    # point, but beta * weight(x) = 1/hypot(1/beta, k x) is not
    p = DecayProblem(Kappa(0.9), beta=1e308, x_max=1e308)
    assert p.rhs(5e306, 1e308) == pytest.approx(-1e308 / (0.9 * 5e306), rel=1e-15)
    # beta * f overflows against a finite weight
    p = DecayProblem(Kappa(0.9), beta=1e300, x_max=2.0)
    assert p.rhs(1.0, 1e10) == pytest.approx(-1e10 / 0.9, rel=1e-15)


# The slopes as the problems document them, written out in full.
def decay_slope(p, x, f):
    return -f / math.hypot(1.0 / p.beta, p.k.value * x)


def logistic_slope(p, x, f):
    return f * (1.0 - f) * (1.0 / math.hypot(1.0, p.k.value * x))


# The closed forms as the problems document them, limits included.  Where
# exp_k overflows or falls below the normal range, f0 exp_k(-beta x) is
# +-exp(u + log|f0|), u the exponent arcsinh(-k beta x)/k, and the logistic
# is (f0 / (1 - f0)) exp(-u) or 1 / (1 + ((1 - f0) / f0) exp(u)).
def f0_times_exp_k(p, bx):
    e = kappa_exp(p.k, -bx)
    if sys.float_info.min <= e < math.inf:
        return p.f0 * e
    return math.copysign(_exp(to_kappa_number(p.k, -bx) + math.log(abs(p.f0))), p.f0)


def decay_exact(p, x):
    if p.f0 == 0.0:  # the zero solution, with the sign of f0
        return p.f0
    bx = p.beta * x
    if bx == math.inf:
        return p.f0 * 0.0
    if bx == -math.inf:
        return math.copysign(math.inf, p.f0)
    return f0_times_exp_k(p, bx)


def logistic_exact(p, x):
    e = kappa_exp(p.k, -x)
    if sys.float_info.min <= e < math.inf:
        return p.f0 / (p.f0 + (1.0 - p.f0) * e)
    log_odds = math.log(p.f0 / (1.0 - p.f0))
    u = to_kappa_number(p.k, -x)
    return math.exp(log_odds - u) if e == math.inf else 1.0 / (1.0 + math.exp(u - log_odds))


def outcome(fn, *args):
    """repr of fn's value, which compares bit for bit, the sign of a zero
    included; or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except DomainError as e:
        return type(e), str(e)


_KV = st.floats(-0.999, 0.999)
_X = st.floats(-1e308, 1e308)


@given(kv=_KV, beta=st.floats(1e-300, 1e308), x=_X, f=_X)
@example(kv=0.9, beta=1e308, x=5e306, f=1e308)  # the overflow edges above
@example(kv=0.9, beta=1e300, x=1.0, f=1e10)
@example(kv=0.9, beta=1e-300, x=1.7976931348623157e308, f=1e308)
@example(kv=0.0, beta=1.0, x=0.0, f=-0.0)
# beta x overflows to -inf from a finite x, which once raised DomainError
@example(kv=0.0, beta=2.247116418577895e307, x=-8.0, f=0.0)
@example(kv=0.0, beta=2.247116418577895e307, x=-8.0, f=1.0)
@example(kv=0.5, beta=1e308, x=-2.0, f=-3.0)
@example(kv=0.0, beta=1.0, x=-710.0, f=1e-300)  # exp_k overflows, f0 exp_k does not
def test_decay_rhs_and_exact_are_the_documented_forms(kv, beta, x, f):
    p = DecayProblem(Kappa(kv), beta=beta, f0=f)
    assert outcome(p.rhs, x, f) == outcome(decay_slope, p, x, f)
    assert outcome(p.exact, x) == outcome(decay_exact, p, x)


@given(kv=_KV, f0=st.floats(5e-324, 1.0, exclude_max=True), x=_X, f=_X)
@example(kv=0.9, f0=0.5, x=1e308, f=1e308)
@example(kv=0.0, f0=5e-324, x=-1e308, f=-0.0)
@example(kv=0.0, f0=0.9999999999999999, x=-710.0, f=0.5)  # exp_k(-x) overflows
def test_logistic_rhs_and_exact_are_the_documented_forms(kv, f0, x, f):
    p = LogisticProblem(Kappa(kv), f0=f0)
    assert outcome(p.rhs, x, f) == outcome(logistic_slope, p, x, f)
    assert outcome(p.exact, x) == outcome(logistic_exact, p, x)


# The closed forms point by point, as exact computed them before the grid
# forms: the reference that the grid forms match bit for bit.
def pointwise_decay_exact(p, x):
    try:
        bx = p.beta * x
    except OverflowError:  # an int x beyond the float range
        bx = math.inf
    if math.isfinite(bx):
        return f0_times_exp_k(p, bx) if p.f0 else p.f0
    _finite("closed_form_decay", x)
    return p.f0 * (0.0 if bx > 0.0 else math.inf) if p.f0 else p.f0


def pointwise_logistic_exact(p, x):
    if not _isfinite(x):
        raise DomainError(f"logistic_closed_form needs finite arguments, got {x!r}")
    return logistic_exact(p, x)


def pointwise(exact, p, xs):
    return tuple(exact(p, x) for x in xs)


_XS = st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6),
                         st.sampled_from([10**400, -10**400])), max_size=8).map(tuple)
_NAN, _INF = math.nan, math.inf


@given(kv=st.one_of(_KV, st.sampled_from([0.0, 1e-300, -5e-324])),
       beta=st.floats(1e-300, 1e308), f0=st.floats(allow_nan=False, allow_infinity=False),
       xs=_XS)
@example(kv=0.0, beta=1.0, f0=1.0, xs=(0.0, -0.0, 1.0, -2.0, 3))
@example(kv=1e-300, beta=1e-3, f0=0.25, xs=(0.5, 3.0, -1e300))  # the series branch
@example(kv=-0.9, beta=1e308, f0=3.0, xs=(1.0, 2.0, -2.0))  # beta x overflows to +-inf
@example(kv=0.0, beta=1.0, f0=2.0, xs=(1.0, -800.0, -0.5))  # exp overflows mid-grid
@example(kv=0.5, beta=1.0, f0=-1.5, xs=(-1e308, 1e308))
@example(kv=0.0, beta=1.0, f0=-1e-300, xs=(-710.0, -1e5, 1.0))  # f0 exp_k stays finite
@example(kv=0.0, beta=1.0, f0=-1e300, xs=(800.0, 708.0, 1e308))  # exp below its normal range
@example(kv=0.0, beta=2.247116418577895e307, f0=0.0, xs=(-8.0, 8.0, -1000.0))  # f0 = +-0
@example(kv=0.0, beta=2.247116418577895e307, f0=-0.0, xs=(-8.0, 8.0, -1000.0))
@example(kv=0.5, beta=1.0, f0=1.0, xs=(0.5, _NAN, _INF))  # the first refused x is named
@example(kv=0.5, beta=1.0, f0=0.0, xs=(-_INF, 1.0))
@example(kv=0.5, beta=1.0, f0=1.0, xs=(1.0, 10**400))
@example(kv=0.5, beta=1.0, f0=1.0, xs=())
def test_decay_grid_form_is_exact_point_by_point(kv, beta, f0, xs):
    p = DecayProblem(Kappa(kv), beta=beta, f0=f0)
    want = outcome(pointwise, pointwise_decay_exact, p, xs)
    assert outcome(pointwise, DecayProblem.exact, p, xs) == want
    if isinstance(want, str):  # the grid form takes only finite points
        assert outcome(p._exact_grid, xs) == want


@given(kv=st.one_of(_KV, st.sampled_from([0.0, 1e-300, -5e-324])),
       f0=st.floats(5e-324, 1.0, exclude_max=True), xs=_XS)
@example(kv=0.0, f0=0.5, xs=(0.0, -0.0, 1.0, -2.0, 3))
@example(kv=1e-300, f0=0.75, xs=(0.5, 3.0, -1e300))  # the series branch
@example(kv=0.0, f0=0.2, xs=(1.0, -800.0, -0.5))  # exp overflows mid-grid
@example(kv=0.0, f0=5e-324, xs=(-1e308, 700.0, 1000.0, -1000.0))  # a subnormal f0
@example(kv=-0.99, f0=0.5, xs=(-1e308, 1e308))
@example(kv=0.0, f0=0.9999999999999999, xs=(-710.0, -715.0, 1.0))
@example(kv=0.0, f0=5e-324, xs=(744.0, 708.0, 750.0))  # exp below its normal range
@example(kv=0.5, f0=0.5, xs=(0.5, _NAN, _INF))  # the first refused x is named
@example(kv=0.5, f0=0.5, xs=(-_INF, 1.0))
@example(kv=0.5, f0=0.5, xs=(1.0, 10**400))
def test_logistic_grid_form_is_exact_point_by_point(kv, f0, xs):
    p = LogisticProblem(Kappa(kv), f0=f0)
    want = outcome(pointwise, pointwise_logistic_exact, p, xs)
    assert outcome(pointwise, LogisticProblem.exact, p, xs) == want
    if isinstance(want, str):  # the grid form takes only finite points
        assert outcome(p._exact_grid, xs) == want


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _either_sign(magnitudes):
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


# 60-digit references: f0 exp(u) and f0 / (f0 + (1 - f0) exp(u)), u the exact
# exponent arcsinh(-k beta x)/k (beta = 1 for the logistic)
def _mp_decay(p, x):
    u = _mp_u(mp.mpf(p.k.value), -mp.mpf(p.beta) * mp.mpf(x))
    return p.f0 * mp.exp(u), u


def _mp_logistic(p, x):
    u = _mp_u(mp.mpf(p.k.value), -mp.mpf(x))
    return p.f0 / (p.f0 + (1 - mp.mpf(p.f0)) * mp.exp(u)), u


_CLOSED_FORM_KAPPAS = (st.just(0.0) | st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True)
                       | _either_sign(_log_uniform(1e-300, 1e-4)))
_CLOSED_FORM_XS = _either_sign(_log_uniform(1e-300, 1e6)) | st.floats(-1e6, 1e6)
_DECAY_ROUTES = {"closed_form_decay": (closed_form_decay, lambda x: x),
                 "substitution_decay": (substitution_decay, abs)}


# The bound is 4 (|u| + 1) ulp: exp turns the rounding of u into about |u|
# ulp.  A value that rounds past the float maximum must be inf, and only such
# a value (_ulps).  Over two runs of 8000 draws per route (2-vCPU Linux,
# Python 3.11.7) the worst ulps / (|u| + 1) were 1.97 (closed_form_decay),
# 2.86 (substitution_decay) and 1.71 (logistic_closed_form); the examples
# are the draws that gave them.
@pytest.mark.parametrize("route", sorted(_DECAY_ROUTES))
def test_decay_routes_match_mpmath_over_the_float_range(route):
    fn, place = _DECAY_ROUTES[route]

    def check(kv, beta, f0, x):
        x = place(x)
        p = DecayProblem(Kappa(kv), beta=beta, f0=f0, x_max=max(x, 1.0))
        with mp.workdps(60):
            want, u = _mp_decay(p, x)
            got = fn(p, x)
            assert _ulps(got, want) <= 4.0 * (abs(float(u)) + 1.0), (got, float(want))

    # exp_k(710) overflows, and f0 exp_k(710) is about +-2.2e8
    check = example(0.0, 1.0, 1e-300, -710.0)(check)
    check = example(0.0, 1.0, -1e-300, -710.0)(check)
    # exp_k(-800) is 0, and f0 exp_k(-800) is about +-3.7e-48
    check = example(0.0, 1.0, 1e300, 800.0)(check)
    check = example(0.0, 1.0, -1e300, 800.0)(check)
    check = example(0.000656629494949712, 1.00151308885223, 6.03695205294243,
                    6.03695205294243)(check)
    check = example(0.1494455540029169, 99999.9999999998, -99999.9999999998,
                    99999.9999999998)(check)
    settings(max_examples=200, deadline=None)(given(
        _CLOSED_FORM_KAPPAS, _log_uniform(1e-5, 1e5),
        _either_sign(_log_uniform(1e-300, 1e300)), _CLOSED_FORM_XS)(check))()


@given(kv=_CLOSED_FORM_KAPPAS,
       f0=(_log_uniform(1e-300, 1.0) | st.floats(1, 16).map(lambda e: 1.0 - 10.0 ** -e))
       .filter(lambda f0: f0 < 1.0),
       x=_CLOSED_FORM_XS)
# exp_k(-x) overflows, and the value is not 0
@example(kv=0.0, f0=0.9999999999999999, x=-710.0)
@example(kv=0.0, f0=1 - 1e-10, x=-715.0)
@example(kv=0.0, f0=0.5, x=-710.0)
# exp_k(-x) below its normal range, and f0 subnormal
@example(kv=0.0, f0=5e-324, x=744.0)
@example(kv=0.463055096863061, f0=8.409652572084801e-213, x=2.904391097295281)
@settings(max_examples=200, deadline=None)
def test_logistic_closed_form_matches_mpmath_over_the_float_range(kv, f0, x):
    p = LogisticProblem(Kappa(kv), f0=f0)
    with mp.workdps(60):
        want, u = _mp_logistic(p, x)
        got = p.exact(x)
        assert _ulps(got, want) <= 4.0 * (abs(float(u)) + 1.0), (got, float(want))


# The residual is 0 in exact arithmetic: what is left is the rounding of
# f (1 - f), taken once with 1 - f from r = ((1 - f0)/f0) exp_k(-x) and once
# as 1 - f, which is within 4 eps f of 0, f the 60-digit closed form, and
# 4 subnormals where f is subnormal.  Over 20 000 draws of kappa, f0 and x
# across the float range (2-vCPU Linux, Python 3.11.7) the worst was
# 0.99 eps f.  At the examples, where a subnormal f0 meets exp_k(-x) below
# its normal range, the residual was once 1.35e-4 and 0.111.
@given(kv=_CLOSED_FORM_KAPPAS,
       f0=(_log_uniform(5e-324, 1.0) | st.floats(1, 16).map(lambda e: 1.0 - 10.0 ** -e))
       .filter(lambda f0: 0.0 < f0 < 1.0),
       x=_CLOSED_FORM_XS | _X)
@example(kv=0.0, f0=5e-324, x=740.0)
@example(kv=0.0, f0=5e-324, x=744.0)
@settings(max_examples=300, deadline=None)
def test_logistic_residual_is_rounding_over_the_float_range(kv, f0, x):
    p = LogisticProblem(Kappa(kv), f0=f0)
    with mp.workdps(60):
        f, _ = _mp_logistic(p, x)
        bound = 4 * sys.float_info.epsilon * f + 4 * math.ulp(0.0)
        assert abs(logistic_residual(p, x)) <= bound, float(f)


@pytest.mark.parametrize("x_max", [744.0, 735.0, 725.0])
def test_logistic_start_below_the_normal_range_is_refused(x_max):
    # the start exact(-x_max) is 1e-323, 6.2e-320 and 1.37e-315: subnormal,
    # and at 744 RK4's increments round to 0, so the trace would stay at
    # 1e-323 at every point.  Every stepper, and so every ladder, refuses
    # it; the problem, its closed form and analytic_trace take it
    lp = LogisticProblem(Kappa(0.0), f0=0.5, x_max=x_max)
    start = lp.exact(-x_max)
    assert 0.0 < start < sys.float_info.min
    assert analytic_trace(lp, 0.25).fs[0] == start
    if x_max == 744.0:
        xs = ode._grid(lp, 0.25)
        assert set(ode._rk4_values(lp.rhs, xs, start, 0.25)) == {1e-323}
    message = f"logistic start {start!r} at x = {-x_max!r} is below the normal range"
    for solver in (euler_solve, ab2_solve, rk4_solve):
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            solver(lp, 0.25)
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        harness.convergence_order(lp, "rk4", 0.1, 4)
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        harness.error_table(lp, ["euler"], 0.25)


def test_logistic_start_at_the_bottom_of_the_normal_range_solves():
    # x_max = 700 starts normal, at 9.86e-305, and solves; so does a start
    # just above sys.float_info.min.  A grid error still comes first
    lp = LogisticProblem(Kappa(0.0), f0=0.5, x_max=700.0)
    assert sys.float_info.min < lp.initial_value < 1e-304
    assert rk4_solve(lp, 0.25).fs[-1] == pytest.approx(1.0)
    edge = LogisticProblem(Kappa(0.0), f0=0.5, x_max=708.0)
    assert sys.float_info.min <= edge.initial_value
    for solver in (euler_solve, ab2_solve, rk4_solve):
        assert solver(edge, 0.5).fs[0] == edge.initial_value
        with pytest.raises(DomainError, match="step size"):
            solver(LogisticProblem(Kappa(0.0), x_max=744.0), -1.0)


def test_decay_subnormal_f0_still_solves():
    # DecayProblem starts at f0 itself: a subnormal f0 gives absolute errors
    # below 5e-324, and no refusal
    p = decay(0.5, f0=5e-324)
    assert p.initial_value == 5e-324
    for solver in (euler_solve, ab2_solve, rk4_solve):
        assert solver(p, 0.5).fs[0] == 5e-324


def test_logistic_error_table_past_exp_overflow():
    # exp_k(712) overflows at the first grid point, where the value is about
    # 4e-293: rk4 starts there, not on the zero solution, so its max error
    # is its own truncation error of about 0.53, not 1.0
    lp = LogisticProblem(Kappa(0.0), f0=0.9999999999999999, x_max=712.0)
    assert 0.0 < lp.initial_value < 1e-290
    (report,) = harness.error_table(lp, ["rk4"], 1.0)
    assert 0.5 < report.max_error < 0.55


_F0_1E300 = DecayProblem(Kappa(0.0), f0=1e300, x_max=800.0)
_PAST_UNDERFLOW = {
    "closed_form_decay": (closed_form_decay, _mp_decay, _F0_1E300, 800.0),
    "substitution_decay": (substitution_decay, _mp_decay, _F0_1E300, 800.0),
    "quadrature_decay": (quadrature_decay, _mp_decay, _F0_1E300, 800.0),
    "closed_form_decay_f0_1e20": (
        closed_form_decay, _mp_decay, DecayProblem(Kappa(0.0), f0=1e20, x_max=740.0), 740.0),
    "logistic_closed_form": (
        logistic_closed_form, _mp_logistic,
        LogisticProblem(Kappa(0.0), f0=5e-324, x_max=744.0), 744.0),
}


@pytest.mark.parametrize("case", sorted(_PAST_UNDERFLOW))
def test_closed_forms_past_exp_underflow(case):
    # exp(u) below its normal range has lost bits, which a large f0, or a
    # subnormal one, would bring into view: the values are 3.67e-48 at
    # f0 = 1e300, 4.19e-302 at f0 = 1e20, and 0.392 for the logistic at
    # f0 = 5e-324, where f0 exp(u) would give 0.0, 4.1995579896505956e-302
    # and 0.3333333333333333
    fn, reference, p, x = _PAST_UNDERFLOW[case]
    with mp.workdps(60):
        want, _ = reference(p, x)
        assert fn(p, x) == pytest.approx(float(want), rel=1e-11, abs=0.0)


def test_decay_closed_form_of_an_int_beta_past_the_float_range():
    # an int beta times an int x is an int, which may pass the float range:
    # the refusal and the limits are those of a float beta
    for kv in (0.0, 0.5):
        p = DecayProblem(Kappa(kv), beta=10**300)
        assert tuple(map(p.exact, (10**10, -10**10, 0))) == (0.0, math.inf, 1.0)
    with pytest.raises(DomainError, match="closed_form_decay needs finite arguments"):
        DecayProblem(Kappa(0.5), beta=1).exact(10**400)


@pytest.mark.parametrize("first,then", [(0.0, -0.0), (-0.0, 0.0)])
def test_analytic_trace_keeps_the_sign_of_a_zero_f0(first, then):
    # DecayProblem(k, f0=0.0) == DecayProblem(k, f0=-0.0), so a trace cached
    # by problem would give the sign of zero of the problem traced first
    analytic_trace(DecayProblem(Kappa(0.5), f0=first), 0.5)
    fs = analytic_trace(DecayProblem(Kappa(0.5), f0=then), 0.5).fs
    assert len(fs) == 11 and {math.copysign(1.0, f) for f in fs} == {math.copysign(1.0, then)}


@pytest.mark.parametrize("problem", [DecayProblem, LogisticProblem])
def test_subclass_that_overrides_exact_is_read_point_by_point(problem):
    # the grid form backs only the exact of its own class
    class Doubled(problem):
        def exact(self, x):
            return 2.0 * super().exact(x)

    p = Doubled(Kappa(0.5), x_max=2.0)
    trace = analytic_trace(p, 0.25)
    assert trace.fs == tuple(2.0 * problem.exact(p, x) for x in trace.xs)
    assert trace.fs != p._exact_grid(trace.xs)
    for r in harness.error_ladder(p, "rk4", 0.25, 3):
        fs = rk4_solve(p, r.h).fs
        assert r.abs_errors == tuple(abs(f - p.exact(x)) for f, x in zip(fs, r.xs))


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
    err = max(abs(f - logistic_closed_form(lp, x)) for x, f in zip(tr.xs, tr.fs))
    assert err < 1e-8


def test_general_f0_logistic_closed_form_solves_ode():
    lp = LogisticProblem(Kappa(0.6), f0=0.2)
    assert logistic_closed_form(lp, 0.0) == pytest.approx(0.2, rel=1e-15)
    for x in [-2.0, 0.7, 4.0]:
        assert abs(logistic_residual(lp, x)) < 1e-12
