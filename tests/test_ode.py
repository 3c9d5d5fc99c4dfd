import math
import os
import re
import sys
import threading

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
    # inf the logistic closed form is 0 with slope 0, so its residual is 0
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
    assert harness._exact_on.cache_info().maxsize == harness.MAX_LEVELS


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


# The closed forms as the problems document them, limits included.
def decay_exact(p, x):
    if p.f0 == 0.0:  # the zero solution, with the sign of f0
        return p.f0
    bx = p.beta * x
    if bx == math.inf:
        return p.f0 * 0.0
    if bx == -math.inf:
        return math.copysign(math.inf, p.f0)
    return p.f0 * kappa_exp(p.k, -bx)


def logistic_exact(p, x):
    return p.f0 / (p.f0 + (1.0 - p.f0) * kappa_exp(p.k, -x))


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
def test_decay_rhs_and_exact_are_the_documented_forms(kv, beta, x, f):
    p = DecayProblem(Kappa(kv), beta=beta, f0=f)
    assert outcome(p.rhs, x, f) == outcome(decay_slope, p, x, f)
    assert outcome(p.exact, x) == outcome(decay_exact, p, x)


@given(kv=_KV, f0=st.floats(5e-324, 1.0, exclude_max=True), x=_X, f=_X)
@example(kv=0.9, f0=0.5, x=1e308, f=1e308)
@example(kv=0.0, f0=5e-324, x=-1e308, f=-0.0)
def test_logistic_rhs_and_exact_are_the_documented_forms(kv, f0, x, f):
    p = LogisticProblem(Kappa(kv), f0=f0)
    assert outcome(p.rhs, x, f) == outcome(logistic_slope, p, x, f)
    assert outcome(p.exact, x) == outcome(logistic_exact, p, x)


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
