import copy
import math
import random
import sys
import threading
from itertools import islice

import mpmath as mp
import pytest

from kappamath import (
    ConvergenceError,
    DecayProblem,
    DomainError,
    FloorError,
    Kappa,
    LogisticProblem,
    asymptote_check,
    convergence_order,
    decay_series_solution,
    error_table,
    exp_kappa_taylor,
    picard_iterate,
    picard_vs_series,
    series_compose,
    series_error_curve,
    series_multiply,
    series_truncate,
)
from kappamath import ode
from kappamath.harness import ROUNDOFF_FLOOR, ErrorReport, _rms, error_ladder, fit_ladder
from kappamath.ode import SOLVERS


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


@pytest.mark.parametrize("methods", [
    lambda names: iter(names), lambda names: (m for m in names)], ids=["iter", "generator"])
def test_error_table_reads_a_one_shot_iterable_once(methods):
    p = decay(x_max=1.0)
    reports = error_table(p, methods(["rk4", "euler"]), 0.1)
    assert [r.method for r in reports] == ["euler", "rk4"]
    assert reports == error_table(p, ["rk4", "euler"], 0.1)
    with pytest.raises(DomainError, match="need at least one method"):
        error_table(p, methods([]), 0.1)
    with pytest.raises(DomainError, match=r"unknown methods: \['simpson'\]"):
        error_table(p, methods(["rk4", "simpson"]), 0.1)


@pytest.mark.parametrize("method,expected,tol", [
    ("euler", 1.0, 0.2), ("ab2", 2.0, 0.2), ("rk4", 4.0, 0.25)])
def test_convergence_orders(method, expected, tol):
    rep = convergence_order(decay(0.9, x_max=5.0), method, 0.1, 4)
    assert len(rep.step_sizes) == len(rep.max_errors)
    assert all(abs(o - expected) <= tol for o in rep.fitted_orders)


def test_error_table_raises_where_a_step_overflows():
    # rk4's first step overflows with both signs: a numerical failure that
    # names x, not a report whose max error is the 0.0 of x = 0
    with pytest.raises(ConvergenceError, match="rk4: the step to x = 0.5 "):
        error_table(decay(0.5, beta=1e308, x_max=2.0), ["rk4"], 0.5)


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


class HugeConstant:
    """f' = 0 from 1e308, against the exact value 0: every error is 1e308."""

    x_start = 0.0
    x_max = 1.0
    initial_value = 1e308

    def rhs(self, x, f):
        return 0.0

    def exact(self, x):
        return 0.0


def test_rms_where_the_norm_of_finite_errors_overflows():
    report, = error_table(HugeConstant(), ["rk4"], 0.25)
    assert report.abs_errors == (1e308,) * 5
    assert math.hypot(*report.abs_errors) == math.inf
    assert report.max_error == report.rms_error == 1e308


class Growing:
    """f' = 2f from 1 on [0, x_max]; the closed form exp(2x) is inf from
    x = 354.9 on.  Euler with h = 1 triples f per step, to inf at x = 647."""

    x_start = 0
    initial_value = 1

    def __init__(self, x_max=800, exact=None):
        self.x_max = x_max
        if exact is not None:
            self.exact = exact

    def rhs(self, x, f):
        return 2.0 * f

    def exact(self, x):
        try:
            return math.exp(2.0 * x)
        except OverflowError:
            return math.inf


def test_ladder_names_the_x_where_trace_and_closed_form_overflow():
    # inf - inf from x = 647 on: 154 errors with no value, not nan reports
    with pytest.raises(ConvergenceError, match=r"same infinity at x = 647\.0$"):
        error_table(Growing(), ["euler"], 1)
    # errors that are inf, with no nan among them, are a report
    report, = error_table(Growing(x_max=646), ["euler"], 1)
    assert report.max_error == report.rms_error == math.inf
    assert report.abs_errors.count(math.inf) == 646 - 354


def test_fit_ladder_refuses_levels_that_give_no_order():
    with pytest.raises(DomainError):
        fit_ladder([])
    # against a closed form of 0 the errors are the trace, inf at both steps
    with pytest.raises(ConvergenceError, match=r"errors inf at h = 1\.0 and inf at h = 0\.5 "):
        convergence_order(Growing(exact=lambda x: 0.0), "euler", 1.0, 2)
    reports = [ErrorReport("rk4", h, (0.0,), (0.0,), 0.0, 0.0) for h in (0.5, 0.25, 0.125)]
    with pytest.raises(ConvergenceError, match=r"^rk4: .* at h = 0\.5 and .* at h = 0\.25 "):
        fit_ladder(reports)


# Bound on the error of the rms against 40-digit mpmath, in units in the last
# place of the exact value.  The worst of 60000 vectors drawn as below was
# 2.15 ulp (CPython 3.11, x86-64); a left-to-right sum of squares reached
# 10.6 ulp on those of them where no square underflows or overflows.
RMS_ULPS = 2.5


def _error_vectors(rng, count):
    """Nonnegative vectors of 2 to 801 errors, within one to sixteen decades
    that lie anywhere from 1e-300 to 1e306."""
    for _ in range(count):
        lo = rng.uniform(-300, 290)
        span = rng.choice([0.0, 1.0, 4.0, 16.0])
        yield tuple(rng.random() * 10 ** (lo + rng.uniform(0, span))
                    for _ in range(rng.randint(2, 801)))


def test_rms_against_40_digit_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for errors in _error_vectors(random.Random(23), 300):
            want = mp.sqrt(mp.fsum(mp.mpf(e) ** 2 for e in errors) / len(errors))
            ulps = abs(mp.mpf(_rms(errors)) - want) / math.ulp(float(want))
            worst = max(worst, float(ulps))
    assert worst <= RMS_ULPS


# math.hypot of a few vectors, by float.hex, as CPython 3.11 gives them:
# every rms comes from it, so a Python that rounds it otherwise shows here,
# and not only in the rms values of the golden corpus.
HYPOT_HEX = [
    ((1.0, 1.0, 1.0), "0x1.bb67ae8584caap+0"),
    ((0.1, 0.2, 0.3, 0.4, 0.5), "0x1.7bb598c88b4adp-1"),
    ((1e-310, 2e-310, 3e-310), "0x0.044e0ba479dcbp-1022"),
    ((1e300, 2e300, 3e300), "0x1.659371f6da5b0p+998"),
    # 801 values, as many as the finest grid of a decay ladder, over 15 decades
    (tuple(math.ldexp(i / 7, -(i % 50)) for i in range(801)), "0x1.3849d5470541fp+8"),
]


@pytest.mark.parametrize("values,want", HYPOT_HEX, ids=["3", "5", "subnormal", "huge", "801"])
def test_hypot_rounds_as_pinned(values, want):
    assert math.hypot(*values).hex() == want


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


@pytest.mark.parametrize("x_max,h0,levels", [
    (2.0, 0.25, 5),
    # the +1e-9 in the grid size gives the decay ladder 4 points at h0 and 6
    # at h0/2: the even points of level 1 are not level 0's grid
    (0.1 * (3 - 7e-10), 0.1, 4)])
@pytest.mark.parametrize("method", ["euler", "ab2", "rk4"])
@pytest.mark.parametrize("problem", [DecayProblem, LogisticProblem])
def test_error_ladder_equals_full_evaluation(problem, method, x_max, h0, levels):
    # reusing the exact values of the previous level changes no bit
    p = problem(Kappa(0.9), x_max=x_max)
    reports = list(error_ladder(p, method, h0, levels))
    assert len(reports) == levels
    assert_fresh(p, reports)


def assert_fresh(p, reports):
    """Each report's errors equal those against p.exact evaluated anew at
    every grid point, with no memo in between."""
    for r in reports:
        trace = SOLVERS[r.method](p, r.h)
        assert r.xs == trace.xs
        want = tuple(abs(f - e) for f, e in zip(trace.fs, [p.exact(x) for x in r.xs]))
        assert r.abs_errors == want


def counting_decay(**kw):
    calls = []

    # no __slots__ of its own: Record takes its fields from DecayProblem's
    class CountingDecay(DecayProblem):
        def exact(self, x):
            calls.append(x)
            return super().exact(x)

    return CountingDecay(Kappa(0.9), **kw), calls


def test_error_ladder_exact_evaluations():
    # 51 + 50 + 100 + 200 + 400 new points; full evaluation makes 1555 calls
    p, calls = counting_decay(x_max=5.0)
    reports = list(error_ladder(p, "rk4", 0.1, 5))
    assert len(calls) == 801 == len(reports[-1].xs)
    assert sorted(calls) == list(reports[-1].xs)
    # a consumer that stops early pays for no finer level
    p, calls = counting_decay(x_max=5.0)
    list(islice(error_ladder(p, "rk4", 0.1, 5), 2))
    assert len(calls) == 101
    # 4 points at h0 and 6 at h0/2 are not nested: level 1 evaluates all 6
    p, calls = counting_decay(x_max=0.1 * (3 - 7e-10))
    r0, r1 = error_ladder(p, "euler", 0.1, 2)
    assert (len(r0.xs), len(r1.xs), len(calls)) == (4, 6, 10)


def test_error_ladder_stopped_by_floor_evaluates_no_finer_level():
    # the rk4 error reaches the round-off floor at level 7 of 8
    p, calls = counting_decay(x_max=5.0)
    reports = list(error_ladder(p, "rk4", 0.1, 8))
    assert len(reports) == 7 and reports[-1].max_error < ROUNDOFF_FLOOR
    assert len(calls) == len(reports[-1].xs) == 3201


METHODS = ("ab2", "euler", "rk4")


def test_ladders_of_all_methods_share_the_exact_values():
    # the first ladder evaluates the 801 points of its finest grid; the other
    # methods' ladders read the same grids
    p, calls = counting_decay(x_max=5.0)
    fits = [convergence_order(p, m, 0.1, 5) for m in METHODS]
    assert len(calls) == 801
    assert fits == [convergence_order(decay(x_max=5.0), m, 0.1, 5) for m in METHODS]


def counting(problem, **kw):
    """A problem of its own class that records the x of each exact and rhs
    call, with the lists it records them in."""
    exact_calls, rhs_calls = [], []

    class Counting(problem):
        def exact(self, x):
            exact_calls.append(x)
            return super().exact(x)

        @property
        def rhs(self):
            slope = super().rhs

            def rhs(x, f):
                rhs_calls.append(x)
                return slope(x, f)
            return rhs

    return Counting(Kappa(0.9), x_max=5.0, **kw), exact_calls, rhs_calls


@pytest.mark.parametrize("problem,n_rhs,n_exact,n_initial", [
    (DecayProblem, 9320, 801, 0), (LogisticProblem, 18620, 1601, 15)])
def test_ladders_count_their_rhs_and_exact_evaluations(problem, n_rhs, n_exact, n_initial):
    # the per-task counts of the decay_ladder and logistic_ladder benchmarks,
    # counted in the library, so that they hold on every Python version;
    # each logistic solve also reads its initial value from the closed form
    p, exact_calls, rhs_calls = counting(problem)
    fits = [convergence_order(p, m, 0.1, 5) for m in METHODS]
    assert len(rhs_calls) == n_rhs
    assert len(exact_calls) == n_exact + n_initial
    assert fits == [convergence_order(problem(Kappa(0.9), x_max=5.0), m, 0.1, 5)
                    for m in METHODS]


@pytest.mark.parametrize("problem,n_exact,n_initial", [
    (DecayProblem, 801, 0), (LogisticProblem, 1601, 15)])
def test_ladders_count_the_points_of_the_grid_form(problem, n_exact, n_initial, monkeypatch):
    # the library problems' exact values come from the grid form: the points
    # of the finest grid once, as the benchmark ladders make them, and one
    # point for each logistic solve's initial value
    calls = []
    grid_form = problem._exact_grid

    def counted(self, xs):
        calls.append(len(xs))
        return grid_form(self, xs)

    monkeypatch.setattr(problem, "_exact_grid", counted)
    ode._exact_on.cache_clear()
    p = problem(Kappa(0.9), x_max=5.0)
    for m in METHODS:
        convergence_order(p, m, 0.1, 5)
    assert sum(calls) == n_exact + n_initial and calls.count(1) == n_initial


@pytest.mark.parametrize("x_max,h0,grids", [
    # h0 down to h0 / 128, and 2 h0 for the values of h0's even points
    (5.0, 0.1, 9),
    # 9 points at h0, 5 at 2 h0 and 3 at 4 h0: 2 h0 reads 4 h0's values
    (4.0, 0.5, 10)])
def test_eight_level_ladders_build_each_grid_once(x_max, h0, grids):
    # the 8 grids that the cache keeps are those the next ladder reads
    p = decay(x_max=x_max)
    ode._points.cache_clear()
    ode._exact_on.cache_clear()
    fits = [convergence_order(p, m, h0, 8) for m in METHODS]
    assert ode._points.cache_info().misses == grids
    assert len(fits[0].step_sizes) == 8


def test_values_cache_never_holds_max_points_over_8_points(monkeypatch):
    monkeypatch.setattr(ode, "MAX_POINTS", 80)
    ode._exact_on.cache_clear()
    p, calls = counting_decay(x_max=1.0)
    # 9 points are cached, with the 5 and 3 of twice and four times the step
    reports = [next(error_ladder(p, "rk4", 0.125, 1))]
    assert len(calls) == 9 and ode._exact_on.cache_info().currsize == 3
    # 10 points, MAX_POINTS // 8, are evaluated afresh on every call
    del calls[:]
    reports += [next(error_ladder(p, m, 1.0 / 9.0, 1)) for m in METHODS]
    assert len(calls) == 3 * 10 and ode._exact_on.cache_info().currsize == 3
    # 17 points are too many to keep: each call evaluates them on its own grid
    del calls[:]
    reports += [next(error_ladder(p, m, 0.0625, 1)) for m in METHODS]
    assert len(calls) == 3 * 17 and ode._exact_on.cache_info().currsize == 3
    assert_fresh(p, reports)


def test_ladder_builds_each_grid_too_large_to_keep_once(monkeypatch):
    # 9 points are kept; the grids of 17 and 33 points are built by the
    # solver, and their exact values read that grid, not one built anew
    monkeypatch.setattr(ode, "MAX_POINTS", 80)
    build = ode._points.__wrapped__
    builds = []

    def counted(*args):
        xs = build(*args)
        builds.append(len(xs))
        return xs

    monkeypatch.setattr(ode._points, "__wrapped__", counted)
    ode._points.cache_clear()
    ode._exact_on.cache_clear()
    p = decay(x_max=1.0)
    reports = list(error_ladder(p, "rk4", 0.125, 3))
    assert [len(r.xs) for r in reports] == [9, 17, 33]
    assert builds == [17, 33]
    assert_fresh(p, reports)


def test_three_point_grid_is_evaluated_in_full():
    # 2h is an invalid step here, so the 3 points are not filled from it
    p = DecayProblem(Kappa(0.5), x_max=4.634091051476445)
    h = 2.317045525969927
    reports = error_table(p, ["euler", "rk4"], h)
    assert [len(r.xs) for r in reports] == [3, 3]
    with pytest.raises(DomainError):
        ode._grid(p, 2 * h)
    assert_fresh(p, reports)


def test_coarser_ladder_after_finer_makes_no_evaluation():
    p, calls = counting_decay(x_max=5.0)
    list(error_ladder(p, "rk4", 0.1, 5))
    del calls[:]
    coarse = list(error_ladder(p, "euler", 0.2, 3))
    # the memo still holds the finer grid
    error_table(p, METHODS, 0.1 / 16)
    assert calls == []
    assert_fresh(p, coarse)


def test_equal_copy_reuses_the_exact_values():
    # the memo compares fields, not identity: an equal copy of the problem
    # reads the values the original's ladder stored
    p, calls = counting_decay(x_max=5.0)
    fit = convergence_order(p, "rk4", 0.1, 5)
    q = copy.copy(p)
    assert q is not p and q == p
    del calls[:]
    assert convergence_order(q, "rk4", 0.1, 5) == fit
    assert calls == []


def test_interleaved_problems_get_their_own_values():
    a, b = decay(0.9, x_max=2.0), decay(0.3, x_max=2.0)
    first = list(error_ladder(a, "rk4", 0.1, 3))
    other = list(error_ladder(b, "rk4", 0.1, 3))
    again = list(error_ladder(a, "rk4", 0.1, 3))
    assert again == first
    assert_fresh(a, again)
    assert_fresh(b, other)


def test_equal_fields_of_another_class_do_not_reuse():
    # each counting_decay() makes its own class: equal fields, unequal problems
    p, calls = counting_decay(x_max=5.0)
    q, q_calls = counting_decay(x_max=5.0)
    assert p != q and p != decay(x_max=5.0)
    list(error_ladder(decay(x_max=5.0), "rk4", 0.1, 5))
    list(error_ladder(p, "rk4", 0.1, 5))
    list(error_ladder(q, "rk4", 0.1, 5))
    assert len(calls) == len(q_calls) == 801


class MutableProblem:
    """A duck-typed problem whose underlying problem can be swapped, and
    which claims to equal everything."""

    def __init__(self, p):
        self.p = p

    def __getattr__(self, name):
        return getattr(self.p, name)

    def __eq__(self, other):
        return True

    __hash__ = None


def test_mutable_problem_gets_fresh_values():
    p, q = decay(0.9, x_max=2.0), decay(0.5, x_max=2.0)
    list(error_ladder(q, "rk4", 0.1, 3))
    # m claims to equal q, whose values the memo holds
    m = MutableProblem(p)
    assert_fresh(p, list(error_ladder(m, "rk4", 0.1, 3)))
    m.p = q
    reports = list(error_ladder(m, "rk4", 0.1, 3))
    assert reports == list(error_ladder(q, "rk4", 0.1, 3))
    m.p = p
    assert_fresh(p, list(error_ladder(m, "rk4", 0.1, 3)))


def test_threads_laddering_different_problems():
    # more threads than cores, switching often; two threads per problem, so
    # that a memo torn between two problems would be read
    problems = [decay(0.9, x_max=1.0), LogisticProblem(Kappa(0.4), x_max=1.0)]
    want = [[convergence_order(p, m, 0.1, 4) for m in METHODS] for p in problems]
    n_threads, rounds = 4, 20
    got = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def run(i):
        start.wait(timeout=60)
        p = problems[i % 2]
        for _ in range(rounds):
            got[i].append([convergence_order(p, m, 0.1, 4) for m in METHODS])

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


@pytest.mark.parametrize("call", [
    lambda: picard_iterate(Kappa(0.5), 2.0),
    lambda: exp_kappa_taylor(Kappa(0.5), 3.0),
    lambda: decay_series_solution(Kappa(0.5), 4.0),
    lambda: list(error_ladder(decay(), "rk4", 0.1, 2.0)),
    lambda: series_error_curve(Kappa(0.5), [2.7], [0.5]),
    lambda: series_truncate([1.0], 2.0),
    lambda: series_multiply([1.0], [1.0], 2.0),
    lambda: series_compose([1.0], [0.0], 2.0)],
    ids=["picard_iterate", "exp_kappa_taylor", "decay_series_solution",
         "error_ladder", "series_error_curve", "series_truncate", "series_multiply",
         "series_compose"])
def test_integer_indexes_reject_floats(call):
    with pytest.raises(DomainError):
        call()


def report(max_error):
    return ErrorReport("euler", 0.1, (0.0,), (max_error,), max_error, max_error)


def test_fit_ladder_orders_at_zero_ratios():
    # an error that grows from a number to inf has order -inf; an error
    # that drops to exactly 0 has order inf
    fit = fit_ladder(map(report, [4.6e77, 5e154, math.inf]))
    assert fit.fitted_orders[1] == -math.inf
    assert fit.fitted_orders[0] == math.log2(4.6e77 / 5e154)
    assert fit_ladder(map(report, [1e-3, 0.0])).fitted_orders == (math.inf,)


def test_series_error_curve_behaviour():
    k = Kappa(0.9)
    curve = series_error_curve(k, [4, 8], [0.0, 0.1, 0.5])
    assert curve.abs_errors[0][0] == 0.0 and curve.abs_errors[1][0] == 0.0
    assert curve.abs_errors[1][2] < curve.abs_errors[0][2]
    assert curve.abs_errors[0][1] < 1e-5
    with pytest.raises(DomainError):
        series_error_curve(k, [], [0.1])


def test_series_error_curve_aligned_with_repeated_orders():
    k = Kappa(0.9)
    xs = [0.1, 0.5, 1.0]
    curve = series_error_curve(k, [4, 4, 2], xs)
    assert curve.orders == (4, 4, 2) and len(curve.abs_errors) == 3
    assert curve.abs_errors[0] == curve.abs_errors[1]
    assert curve.abs_errors[2] == series_error_curve(k, [2], xs).abs_errors[0]
    assert all(len(errors) == len(xs) for errors in curve.abs_errors)
    assert hash(curve) == hash(series_error_curve(k, [4, 4, 2], xs))


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


def test_asymptote_check_where_the_factors_leave_the_float_range():
    # exp_k(-x) underflows to 0 where (2|k|x)^(1/|k|) overflows.  The true
    # ratio is 1 to 30 digits; its exponent is the difference of two terms
    # near log(2|k|x)/|k|, 2300 at k = 0.1, whose rounding costs a few 1e-13
    for kv, x in ((0.1, 1e100), (0.5, 1e200), (-0.5, 1e300), (0.9, sys.float_info.max)):
        assert asymptote_check(Kappa(kv), x) == pytest.approx(1.0, rel=2e-12)
    # k x = 1 is far from the tail: the ratio is (2 (sqrt 2 - 1))^(1e300) = 0
    assert asymptote_check(Kappa(1e-300), 1e300) == 0.0


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


def test_series_comparisons_raise_where_both_values_overflow():
    # at k = 0 both sides are inf at |x| = 1e100: their difference, nan, has
    # no trustworthy finite value, so the point is named, not reported
    with pytest.raises(ConvergenceError, match="x = 1e[+]100"):
        picard_vs_series(Kappa(0.0), 8, [0.5, 1e100])
    with pytest.raises(ConvergenceError, match="x = -1e[+]100"):
        series_error_curve(Kappa(0.0), [8], [0.5, -1e100])


@pytest.mark.parametrize("n", [21, -1])
def test_picard_vs_series_index_validation(n):
    with pytest.raises(DomainError):
        picard_vs_series(Kappa(0.5), n, [0.1])
