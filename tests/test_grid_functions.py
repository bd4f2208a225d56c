import numpy as np
import pytest

from scipy.interpolate import CubicHermiteSpline

from mpursuit.grid_functions import (GridFunction, _hermite_slopes, integrate,
                                     log_between, log_tail, scaled_selfconv,
                                     selfconv_on_nodes)


def grid(lo, hi, fn, m=2001, **kw):
    x = np.linspace(lo, hi, m)
    return GridFunction(lo, hi, fn(x), **kw)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GridFunction(0, 1, np.zeros(4))        # even node count
    with pytest.raises(ValueError):
        GridFunction(0, 1, np.zeros(1))
    with pytest.raises(ValueError):
        GridFunction(1, 0, np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(0, 1, [0.0, np.inf, 0.0])


def test_integrate_constant():
    assert integrate(grid(0, 1, lambda x: np.ones_like(x))) == pytest.approx(1.0)


def test_integrate_cubic_exact():
    assert integrate(grid(0, 1, lambda x: x ** 3)) == pytest.approx(0.25, abs=1e-12)


def test_integrate_log_analytic():
    g = grid(0.5, 1.0, lambda x: 1.0 / x, m=1001)
    assert integrate(g) == pytest.approx(np.log(2.0), abs=1e-8)


def test_integrate_additive_over_split():
    f = np.exp
    whole = integrate(grid(0, 1, f, m=2001))
    left = integrate(grid(0, 0.5, f, m=1001))
    right = integrate(grid(0.5, 1, f, m=1001))
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_log_tail_zero_function():
    g = grid(0.25, 1, lambda x: np.zeros_like(x), m=501)
    for x in (0.25, 0.6, 1.0):
        assert log_tail(g, x) == 0.0


def test_log_tail_analytic():
    g = grid(0.25, 1, lambda x: np.ones_like(x), m=1001)
    assert log_tail(g, 0.25) == pytest.approx(np.log(4.0), abs=1e-8)
    assert log_tail(g, 1.0) == 0.0


def test_log_tail_monotone_for_nonnegative(rng):
    g = grid(0.3, 1, lambda x: 1 + np.sin(3 * x) ** 2, m=501)
    xs = np.sort(rng.uniform(0.3, 1.0, 50))
    tails = [log_tail(g, float(x)) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


def test_log_tail_cumulative_consistency():
    g = grid(0.3, 1, lambda x: np.cos(x) + 2, m=1001)
    for x in (0.31, 0.5, 0.77, 0.99):
        total = log_tail(g, 0.3)
        assert log_between(g, 0.3, x) + log_tail(g, x) == pytest.approx(total, abs=1e-10)


def test_log_tail_domain_errors():
    g = grid(0.25, 1, lambda x: np.ones_like(x), m=501)
    with pytest.raises(ValueError):
        log_tail(g, 0.1)
    gz = g.with_extension(left_zero=True, right_hold=False)
    assert log_tail(gz, 0.1) == pytest.approx(np.log(4.0), abs=1e-8)


def test_evaluation_extension_rules():
    g = grid(0.5, 1, lambda x: x, m=501)
    with pytest.raises(ValueError):
        g(0.2)
    with pytest.raises(ValueError):
        g(1.2)
    ge = g.with_extension(left_zero=True, right_hold=True)
    assert ge(0.2) == 0.0
    assert ge(1.2) == pytest.approx(1.0)
    assert ge(0.75) == pytest.approx(0.75, abs=1e-12)


def test_evaluation_bit_identical_to_scipy(rng):
    for _ in range(20):
        m = 2 * int(rng.integers(1, 600)) + 1
        lo = float(rng.uniform(-1.0, 1.0))
        hi = lo + float(rng.uniform(0.01, 3.0))
        vals = rng.standard_normal(m) * 10.0 ** rng.uniform(-6, 6)
        vals[rng.integers(0, m, size=m // 4)] = -0.0
        g = GridFunction(lo, hi, vals)
        ref = CubicHermiteSpline(g.nodes, g.values, _hermite_slopes(g.values, g.h))
        n = int(rng.integers(2, 3000))
        inside = np.concatenate([g.nodes, [lo, hi], rng.uniform(lo, hi, 500),
                                 lo + (hi - lo) * np.arange(1, n) / n])
        assert np.array_equal(g(inside).view(np.int64), ref(inside).view(np.int64))
        outside = np.concatenate([rng.uniform(lo - 1.0, lo, 100),
                                  rng.uniform(hi, hi + 1.0, 100)])
        assert np.array_equal(g.interpolant(outside).view(np.int64),
                              ref(outside).view(np.int64))


def test_derivative_accuracy():
    g = grid(0, 1, np.sin, m=2001)
    xs = np.linspace(0.05, 0.95, 200)
    assert np.max(np.abs(g.derivative(xs) - np.cos(xs))) < 1e-6


def test_selfconv_zero_function():
    g = grid(0.5, 1, lambda x: np.zeros_like(x), m=501)
    for a in (0.5, 0.7, 1.0):
        assert scaled_selfconv(g, a, 0.5) == 0.0


def test_selfconv_at_left_endpoint():
    g = grid(0.5, 1, lambda x: 1 + x, m=501)
    assert scaled_selfconv(g, 0.5, 0.5) == 0.0


def test_selfconv_constant_one():
    g = grid(0.5, 1, lambda x: np.ones_like(x), m=501)
    assert scaled_selfconv(g, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_selfconv_against_fine_quadrature():
    tau = 0.46
    g = grid(tau, 1, lambda x: x ** -0.7, m=2001)
    spl = g.spline()
    for a in (0.55, 0.731, 0.9, 1.0):
        fine = np.linspace(tau, a, 80001)
        brute = np.trapezoid(spl(fine) * spl(np.minimum(fine / a, 1.0)), fine) / a
        assert scaled_selfconv(g, a, tau) == pytest.approx(brute, abs=1e-8)


def test_selfconv_off_grid_a_continuity():
    tau = 0.5
    g = grid(tau, 1, lambda x: 2 - x, m=1001)
    lip = 4.0 / tau  # max|f|^2 / tau
    h = 1e-4
    for a in (0.6003, 0.85017):
        v0 = scaled_selfconv(g, a, tau)
        v1 = scaled_selfconv(g, a + h, tau)
        assert abs(v1 - v0) <= lip * h


def test_selfconv_on_nodes_matches_pointwise():
    tau = 0.46
    g = grid(tau, 1, lambda x: np.cosh(x), m=501)
    bulk = selfconv_on_nodes(g)
    nodes = g.nodes
    for i in (0, 1, 5, 100, 250, 500):
        assert bulk[i] == pytest.approx(scaled_selfconv(g, float(nodes[i]), tau),
                                        rel=1e-11, abs=1e-13)


def test_integral_between():
    g = grid(0, 1, lambda x: x ** 2, m=1001)
    assert g.integral_between(0.2, 0.8) == pytest.approx((0.8 ** 3 - 0.2 ** 3) / 3,
                                                         abs=1e-10)


def test_csv_round_trip():
    g = grid(0.25, 1, lambda x: np.sin(5 * x), m=501,
             extend_left_zero=True)
    back = GridFunction.from_csv(g.to_csv())
    assert back.lo == g.lo and back.hi == g.hi and back.m == g.m
    assert np.array_equal(back.values, g.values)
    assert back.extend_left_zero and not back.extend_right_hold


def test_refined_reproduces_values():
    g = grid(0, 1, lambda x: np.exp(x), m=501)
    fine = g.refined(2)
    assert fine.m == 1001
    assert np.max(np.abs(fine.values[::2] - g.values)) < 1e-14
