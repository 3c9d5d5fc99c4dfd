import math
import sys
import threading
from itertools import islice

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
    decay_series_solution,
    error_table,
    exp_kappa_taylor,
    picard_iterate,
    picard_vs_series,
    series_error_curve,
)
from kappamath.harness import ROUNDOFF_FLOOR, ErrorReport, error_ladder, fit_ladder
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


@pytest.mark.parametrize("method,expected,tol", [
    ("euler", 1.0, 0.2), ("ab2", 2.0, 0.2), ("rk4", 4.0, 0.25)])
def test_convergence_orders(method, expected, tol):
    rep = convergence_order(decay(0.9, x_max=5.0), method, 0.1, 4)
    assert len(rep.step_sizes) == len(rep.max_errors)
    assert all(abs(o - expected) <= tol for o in rep.fitted_orders)


def test_error_table_max_error_keeps_nan():
    # rk4 blows up after the first step; max() alone would report the 0.0 of x = 0
    report, = error_table(decay(0.5, beta=1e308, x_max=2.0), ["rk4"], 0.5)
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


def test_coarser_ladder_after_finer_makes_no_evaluation():
    p, calls = counting_decay(x_max=5.0)
    list(error_ladder(p, "rk4", 0.1, 5))
    del calls[:]
    coarse = list(error_ladder(p, "euler", 0.2, 3))
    # the memo still holds the finer grid
    error_table(p, METHODS, 0.1 / 16)
    assert calls == []
    assert_fresh(p, coarse)


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
    lambda: series_error_curve(Kappa(0.5), [2.7], [0.5])],
    ids=["picard_iterate", "exp_kappa_taylor", "decay_series_solution",
         "error_ladder", "series_error_curve"])
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
