"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s or -rA)."""

import json
import math
import random
import time

from kappamath import (
    DecayProblem,
    Kappa,
    LogisticProblem,
    closed_form_decay,
    convergence_order,
    decay_series_solution,
    error_table,
    exp_kappa_taylor,
    kappa_exp,
    kappa_ln,
    kappa_product,
    kappa_product_identity,
    kappa_sum,
    ln_kappa_shifted_taylor,
    logistic_closed_form,
    logistic_residual,
    picard_iterate,
    quadrature_decay,
    residual_decay,
    rk4_solve,
    substitution_decay,
)
from kappamath import core
from kappamath.cli import main as cli_main
from kappamath.series import picard_iterate_in_x


def check(num, description, ok):
    print(f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def linspace(a, b, n):
    """n evenly spaced floats from a to b, both included."""
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def test_criterion_01_inverse_roundtrip():
    start = time.perf_counter()
    # 50 log-spaced points strictly inside [1e-3, 1e3]
    xs = [10.0 ** e for e in linspace(-3.0, 3.0, 52)[1:-1]]
    ok = True
    for kv in (0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
        k = Kappa(kv)
        for x in xs:
            y = kappa_ln(k, x)
            ok &= abs(kappa_exp(k, y) - x) <= 1e-12 * x
            # ln(exp(.)) checked at y = ln_k(x): exp_k overflows for the raw
            # grid values at small kappa, so the argument is kept in range
            ok &= abs(kappa_ln(k, kappa_exp(k, y)) - y) <= 1e-12 * max(abs(y), 1e-300)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    check(1, f"exp/ln inverse roundtrip to 1e-12 ({elapsed:.2f} s)", ok)


def test_criterion_02_taylor_fidelity():
    ok = True
    for kv in linspace(-0.95, 0.95, 20):
        exp_want = [1.0, 1.0, 0.5, (1 - kv**2) / 6, (1 - 4 * kv**2) / 24,
                    (1 - kv**2) * (1 - 9 * kv**2) / 120]
        got = exp_kappa_taylor(Kappa(kv), 5).coefficients
        ok &= all(abs(g - w) <= 1e-13 for g, w in zip(got, exp_want))
        ln_want = [1.0, -0.5, (1 + kv**2 / 2) / 3, -(1 + kv**2) / 4,
                   (24 + 35 * kv**2 + kv**4) / 120]
        got_ln = ln_kappa_shifted_taylor(Kappa(kv), 5).coefficients[1:]
        ok &= all(abs(g - w) <= 1e-13 for g, w in zip(got_ln, ln_want))
    check(2, "exp/ln Taylor coefficients match printed formulas to 1e-13", ok)


def test_criterion_03_power_series_oracle():
    ok = True
    for kv in (0.1, 0.5, 0.9):
        k = Kappa(kv)
        got = decay_series_solution(k, 8).coefficients
        # independent oracle: exp series from g' = u'g in its second-order form,
        # (n+1)(n+2) g_{n+2} = (1 - k^2 n^2) g_n, sign-alternated
        oracle = [(-1) ** n * c for n, c in enumerate(exp_kappa_taylor(k, 8).coefficients)]
        ok &= all(abs(g - w) <= 1e-12 for g, w in zip(got, oracle))
        low_want = [1.0, -1.0, 0.5, (kv**2 - 1) / 6, (1 - 4 * kv**2) / 24]
        ok &= all(abs(g - w) <= 1e-13 for g, w in zip(got[:5], low_want))
    check(3, "decay series recurrence matches exp_k(-x) Taylor oracle", ok)


def test_criterion_04_picard_agreement():
    ok = True
    k = Kappa(0.9)
    for n in range(9):
        it = picard_iterate(k, n)
        ok &= all(c == (-1) ** j / math.factorial(j)
                  for j, c in enumerate(it.coefficients))
        px = picard_iterate_in_x(it, k, n).coefficients
        sx = decay_series_solution(k, n).coefficients
        ok &= all(abs(a - b) <= 1e-12 for a, b in zip(px, sx))
    check(4, "Picard iterates are exact truncated exponentials in u and "
             "match the decay series in x", ok)


def test_criterion_05_analytic_unanimity():
    assert core.QUAD_TOL == 1e-12
    ok = True
    count = 0
    for kv in (0.0, 0.3, 0.75, 0.9):
        for beta in (0.5, 1.0, 2.0):
            p = DecayProblem(Kappa(kv), beta=beta, x_max=10.0)
            for x in linspace(0.0, 10.0, 45):
                cf = closed_form_decay(p, x)
                qd = quadrature_decay(p, x)
                sd = substitution_decay(p, x)
                scale = max(abs(cf), abs(qd), abs(sd))
                ok &= abs(cf - qd) <= 1e-10 * scale
                ok &= abs(cf - sd) <= 1e-10 * scale
                ok &= abs(qd - sd) <= 1e-10 * scale
                dfdx = -beta * cf * p.weight(x)
                ok &= abs(residual_decay(p, cf, dfdx, x)) < 1e-11
                count += 1
    ok &= count >= 500
    check(5, f"closed form, quadrature, substitution agree on {count} sweep points", ok)


def test_criterion_06_convergence_orders():
    start = time.perf_counter()
    p = DecayProblem(Kappa(0.9), x_max=5.0)
    ok = True
    for method, nominal, tol in (("euler", 1.0, 0.2), ("ab2", 2.0, 0.2),
                                 ("rk4", 4.0, 0.25)):
        rep = convergence_order(p, method, 0.1, 4)  # ladder 0.1 .. 0.0125
        ok &= all(abs(o - nominal) <= tol for o in rep.fitted_orders)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    check(6, f"fitted orders 1/2/4 within tolerance ({elapsed:.2f} s)", ok)


def test_criterion_07_error_separation():
    p = DecayProblem(Kappa(0.9), x_max=5.0)
    maxes = {r.method: r.max_error for r in error_table(p, ["euler", "ab2", "rk4"], 0.01)}
    ok = maxes["euler"] > 10 * maxes["ab2"] and maxes["ab2"] > 100 * maxes["rk4"]
    check(7, f"euler {maxes['euler']:.1e} > 10x ab2 {maxes['ab2']:.1e} "
             f"> 100x rk4 {maxes['rk4']:.1e}", ok)


def test_criterion_08_logistic():
    ok = True
    for kv in (0.0, 0.5, 0.9):
        lp = LogisticProblem(Kappa(kv), x_max=5.0)
        ok &= all(abs(logistic_residual(lp, x)) < 1e-10
                  for x in linspace(-5.0, 5.0, 201))
        tr = rk4_solve(lp, 0.01)
        err = max(abs(f - logistic_closed_form(lp, x)) for x, f in zip(tr.xs, tr.fs))
        ok &= err < 1e-8
    check(8, "logistic closed form solves its equation and rk4 tracks it", ok)


def test_criterion_09_asymptotics():
    ok = True
    for kv in (0.25, 0.5, 0.75):
        ratio = kappa_exp(Kappa(kv), -1e6) * (2 * kv * 1e6) ** (1 / kv)
        ok &= abs(ratio - 1.0) <= 1e-4
    check(9, "power-law tail ratio within 1e-4 of 1 at x = 1e6", ok)


def test_criterion_10_group_axioms_and_homomorphism():
    rng = random.Random(514229)
    k = Kappa(0.5)
    ident = kappa_product_identity(k)
    ok = True
    for _ in range(1000):
        x, y, z = (rng.uniform(-10, 10) for _ in range(3))
        s = kappa_sum
        ok &= math.isclose(s(k, x, y), s(k, y, x), rel_tol=1e-10, abs_tol=1e-10)
        ok &= math.isclose(s(k, s(k, x, y), z), s(k, x, s(k, y, z)),
                           rel_tol=1e-10, abs_tol=1e-10)
        ok &= s(k, x, 0.0) == x
        ok &= abs(s(k, x, -x)) <= 1e-12 * max(1.0, abs(x))
        lhs = kappa_exp(k, s(k, x, y))
        ok &= math.isclose(lhs, kappa_exp(k, x) * kappa_exp(k, y), rel_tol=1e-11)
        if min(abs(x), abs(y), abs(z)) > 0.01:  # product inverse overflows at 0
            pr = kappa_product
            ok &= math.isclose(pr(k, x, y), pr(k, y, x), rel_tol=1e-10, abs_tol=1e-10)
            ok &= math.isclose(pr(k, pr(k, x, y), z), pr(k, x, pr(k, y, z)),
                               rel_tol=1e-10, abs_tol=1e-10)
            ok &= math.isclose(pr(k, x, ident), x, rel_tol=1e-12)
            inv = math.sinh(k.value**2 / math.asinh(k.value * x)) / k.value
            ok &= math.isclose(pr(k, x, inv), ident, rel_tol=1e-10)
    check(10, "group axioms for the deformed sum/product and exp homomorphism", ok)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    invocations = {
        "eval": ["eval", "--fn", "exp", "--kappa", "0.5", "--x", "1"],
        "solve": ["solve", "--kappa", "0.9", "--method", "rk4", "--h", "0.1",
                  "--x-max", "2"],
        "series": ["series", "--target", "decay", "--order", "6", "--kappa", "0.9"],
        "slope-field": ["slope-field", "--kappa", "0.9", "--nx", "5", "--nf", "5"],
        "logistic": ["logistic", "--kappa", "0.9", "--h", "0.5", "--x-max", "2"],
    }
    failing = {
        "eval": ["eval", "--fn", "exp", "--kappa", "1.5", "--x", "1"],
        "solve": ["solve", "--kappa", "0.9", "--method", "euler", "--h", "-1"],
        "series": ["series", "--target", "exp", "--order", "99", "--kappa", "0.5"],
        "compare": ["compare", "--methods", "", "--out-dir", str(tmp_path)],
        "slope-field": ["slope-field", "--kappa", "0.9", "--nx", "0", "--nf", "5"],
        "logistic": ["logistic", "--kappa", "0.9", "--h", "-2"],
    }
    ok = True
    for name, argv in invocations.items():
        outputs = []
        for i in range(2):
            target = tmp_path / f"{name}_{i}.out"
            rc = cli_main(argv + ["--output", str(target)]
                          if name != "eval" else argv)
            ok &= rc == 0
            if name == "eval":
                outputs.append(capsys.readouterr().out.encode())
            else:
                outputs.append(target.read_bytes())
        ok &= outputs[0] == outputs[1]
    # compare writes a directory of files; check summary.json twice
    summaries = []
    for i in range(2):
        d = tmp_path / f"cmp{i}"
        d.mkdir()
        rc = cli_main(["compare", "--methods", "euler,rk4", "--h", "0.1",
                       "--kappa", "0.9", "--out-dir", str(d)])
        ok &= rc == 0
        summaries.append((d / "summary.json").read_bytes())
    ok &= summaries[0] == summaries[1]
    ok &= json.loads(summaries[0])["reports"][0]["method"] == "euler"
    for name, argv in failing.items():
        capsys.readouterr()
        rc = cli_main(argv)
        ok &= rc == 2
    check(11, "CLI byte-identical reruns and exit-code contract", ok)
