import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.interpolate import CubicHermiteSpline

from mpursuit.grid_functions import (GridFunction, _hermite_slopes, scaled_selfconv,
                                     selfconv_on_nodes)


def grid(lo, hi, fn, m=2001):
    x = np.linspace(lo, hi, m)
    return GridFunction(lo, hi, fn(x))


def log_tail(g, x):
    """integral_x^hi of g(z)/z dz."""
    return float(g.log_between(x, g.hi))


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
    assert grid(0, 1, lambda x: np.ones_like(x)).integrate() == pytest.approx(1.0)


def test_integrate_cubic_exact():
    assert grid(0, 1, lambda x: x ** 3).integrate() == pytest.approx(0.25, abs=1e-12)


def test_integrate_log_analytic():
    g = grid(0.5, 1.0, lambda x: 1.0 / x, m=1001)
    assert g.integrate() == pytest.approx(np.log(2.0), abs=1e-8)


def test_integrate_additive_over_split():
    f = np.exp
    whole = grid(0, 1, f, m=2001).integrate()
    left = grid(0, 0.5, f, m=1001).integrate()
    right = grid(0.5, 1, f, m=1001).integrate()
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
        assert g.log_between(0.3, x) + log_tail(g, x) == pytest.approx(total, abs=1e-10)


def test_log_tail_domain_errors():
    g = grid(0.25, 1, lambda x: np.ones_like(x), m=501)
    with pytest.raises(ValueError, match="log_between limit outside"):
        log_tail(g, 0.1)
    with pytest.raises(ValueError, match="log_between limit outside"):
        g.log_between(0.5, 1.2)
    # limits inside the edge slack are clipped onto the grid
    assert log_tail(g, 0.25 - 1e-14) == pytest.approx(np.log(4.0), abs=1e-8)


def test_evaluation_extension_rules():
    # no extension: outside [lo, hi] beyond the edge slack every evaluation
    # raises (the profile's zero/hold extension is mollify's own rule)
    g = grid(0.5, 1, lambda x: x, m=501)
    for x in (0.2, 1.2, [0.75, 1.2]):
        with pytest.raises(ValueError, match="evaluation outside"):
            g(x)
        with pytest.raises(ValueError, match="derivative outside"):
            g.derivative(x)
    with pytest.raises(ValueError, match="integration limit outside"):
        g.integral_between(0.2, 0.75)
    assert g(0.75) == pytest.approx(0.75, abs=1e-12)
    assert g(1.0 + 1e-13) == g(1.0)
    assert np.array_equal(g([0.5 - 1e-13, 0.75]), g([0.5, 0.75]))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_evaluation_bit_identical_to_scipy(rng):
    # scipy is the reference only: the package evaluates its own piece tables
    for trial in range(20):
        m = 2 * int(rng.integers(1, 600)) + 1
        lo = float(rng.uniform(-1.0, 1.0)) if trial % 2 else float(rng.uniform(0.01, 1.0))
        hi = lo + float(rng.uniform(0.01, 3.0))
        vals = rng.standard_normal(m) * 10.0 ** rng.uniform(-6, 6)
        vals[rng.integers(0, m, size=m // 4)] = -0.0
        g = GridFunction(lo, hi, vals)
        ref = CubicHermiteSpline(g.nodes, g.values, _hermite_slopes(g.values, g.h))
        n = int(rng.integers(2, 3000))
        inside = np.concatenate([g.nodes, [lo, hi], rng.uniform(lo, hi, 500),
                                 lo + (hi - lo) * np.arange(1, n) / n])
        assert np.array_equal(bits(g(inside)), bits(ref(inside)))
        assert np.array_equal(bits(g.derivative(inside)), bits(ref.derivative()(inside)))
        u, v = rng.uniform(lo, hi, (2, 300))
        anti = ref.antiderivative()
        assert np.array_equal(bits(g.integral_between(u, v)), bits(anti(v) - anti(u)))
        if lo <= 0.0:
            continue  # g/z diverges at a nonzero node <= 0
        w = g.values / g.nodes
        log_anti = CubicHermiteSpline(g.nodes, w, _hermite_slopes(w, g.h)).antiderivative()
        assert np.array_equal(bits(g.log_between(u, v)), bits(log_anti(v) - log_anti(u)))
        tails = [log_tail(g, x) for x in u[:20]]
        assert np.array_equal(bits(tails), bits(log_anti(hi) - log_anti(u[:20])))


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
    spl = CubicHermiteSpline(g.nodes, g.values, _hermite_slopes(g.values, g.h))
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


@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (0.0, 1.0)])
def test_selfconv_on_nodes_rejects_queries_below_the_grid(lo, hi):
    # on [0.5, 2] the last node's queries x_j / 2 reach 0.25 < lo, where f
    # counts as 0: f = 1 gives 0.5 there, but the end cubic would give 0.75
    g = grid(lo, hi, lambda x: np.ones_like(x), m=101)
    with pytest.raises(ValueError, match="0 < lo and hi <= 1"):
        selfconv_on_nodes(g)


def test_integral_between():
    g = grid(0, 1, lambda x: x ** 2, m=1001)
    assert g.integral_between(0.2, 0.8) == pytest.approx((0.8 ** 3 - 0.2 ** 3) / 3,
                                                         abs=1e-10)


def test_csv_round_trip():
    g = grid(0.25, 1, lambda x: np.sin(5 * x), m=501)
    text = g.to_csv()
    assert text.startswith("# lo=0.25,hi=1.0,M=501\nx,value\n")
    back = GridFunction.from_csv(text)
    assert back.lo == g.lo and back.hi == g.hi and back.m == g.m
    assert np.array_equal(back.values, g.values)
    # an older file's extension keys in the header are ignored
    old = GridFunction.from_csv(text.replace(",M=501", ",M=501,ext_left=zero,ext_right=hold"))
    assert old.to_csv() == text


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12).map(lambda k: 2 * k + 1),
       lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
       data=st.data())
def test_csv_round_trip_exact_and_rows_required(m, lo, width, data):
    vals = np.array(data.draw(st.lists(_finite | st.just(-0.0), min_size=m, max_size=m)))
    g = GridFunction(lo, lo + width, vals)
    text = g.to_csv()
    back = GridFunction.from_csv(text)
    assert (back.lo, back.hi, back.m) == (g.lo, g.hi, g.m)
    assert np.array_equal(bits(back.values), bits(g.values))   # -0.0 included
    assert back.to_csv() == text
    # one dropped row leaves an even node count; two leave an odd count that
    # only the header's M catches
    lines = text.splitlines()
    drop = data.draw(st.sets(st.sampled_from([i for i, line in enumerate(lines)
                                              if line != "x,value"]),
                             min_size=1, max_size=2))
    with pytest.raises(ValueError):
        GridFunction.from_csv("\n".join(line for i, line in enumerate(lines)
                                        if i not in drop))


@pytest.mark.parametrize("row", ["0.5", "0.5,1.0,2.0", "0.5,abc", ","])
def test_csv_malformed_row_is_a_value_error(row):
    lines = grid(0, 1, np.exp, m=5).to_csv().splitlines()
    lines[3] = row
    with pytest.raises(ValueError, match="not two numbers"):
        GridFunction.from_csv("\n".join(lines))


def test_csv_row_count_must_match_header():
    text = grid(0, 1, np.exp, m=5).to_csv()
    with pytest.raises(ValueError, match="M=5"):
        GridFunction.from_csv(text + "1.25,3.0\n")
    with pytest.raises(ValueError, match="lo/hi/M header"):
        GridFunction.from_csv(text.replace(",M=5", ""))


@pytest.mark.parametrize("x, ok", [("7.0", False), ("0.626", False),
                                   ("0.62500000000100", False), ("0.62500000000010", True)])
def test_csv_x_must_be_the_grid_node(x, ok):
    # nodes 0.5, 0.625, ..., 1; the slack is 1e-12 * (hi - lo) = 5e-13
    text = GridFunction(0.5, 1.0, np.linspace(1.0, 2.0, 5)).to_csv()
    assert "\n0.625,1.25\n" in text
    text = text.replace("\n0.625,", f"\n{x},")
    if ok:
        assert GridFunction.from_csv(text).values[1] == 1.25
    else:
        with pytest.raises(ValueError, match=f"x={float(x)!r} is not grid node 1"):
            GridFunction.from_csv(text)


def test_refined_reproduces_values():
    g = grid(0, 1, lambda x: np.exp(x), m=501)
    fine = g.refined(2)
    assert fine.m == 1001
    assert np.max(np.abs(fine.values[::2] - g.values)) < 1e-14
