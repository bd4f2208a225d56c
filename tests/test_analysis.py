import numpy as np
import pytest

from mpursuit.analysis import check_bounds, fit_decay
from mpursuit.greedy_algorithms import Dictionary, GreedyTrace, TraceStep, run
from mpursuit.linear_core import CoeffVector


def synthetic_trace(norms, offset=0):
    t = GreedyTrace()
    for j, rn in enumerate(norms, start=1):
        t.steps.append(TraceStep(j, f"a{j}", 1, 0.0, float(rn)))
    return t


def test_fit_exact_power_law():
    ns = np.arange(1, 400)
    fit = fit_decay(synthetic_trace(ns ** -0.3), 1, 399)
    assert fit.slope == pytest.approx(-0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_with_prefactor():
    ns = np.arange(1, 200)
    fit = fit_decay(synthetic_trace(2.0 * ns ** -0.5), 1, 199)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-12)


def test_fit_scale_invariance():
    ns = np.arange(1, 300)
    base = ns ** -0.25 * (1 + 0.01 * np.sin(ns))
    f1 = fit_decay(synthetic_trace(base), 10, 290)
    f2 = fit_decay(synthetic_trace(7.5 * base), 10, 290)
    assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
    assert f2.intercept - f1.intercept == pytest.approx(np.log(7.5), abs=1e-12)


def test_fit_index_offset():
    offset = 400
    ns = offset + np.arange(1, 300)
    fit = fit_decay(synthetic_trace(ns ** -0.4), 450, 650, index_offset=offset)
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)


def test_fit_requires_points():
    with pytest.raises(ValueError, match="usable points"):
        fit_decay(synthetic_trace(np.arange(1, 8) ** -0.2), 1, 7)
    with pytest.raises(ValueError):
        fit_decay(synthetic_trace(np.ones(50)), 30, 20)


def test_fit_drops_noise_floor_points():
    norms = np.concatenate([np.arange(1, 30) ** -0.3, np.full(30, 1e-15)])
    fit = fit_decay(synthetic_trace(norms), 1, 59)
    assert fit.points == 29
    assert fit.slope == pytest.approx(-0.3, abs=1e-12)


def test_check_bounds_power_law():
    ns = np.arange(1, 500)
    rep = check_bounds(synthetic_trace(ns ** -0.2), 0.2, 1.0)
    assert rep.upper_witness == pytest.approx(1.0, rel=0.05)
    assert rep.lower_witness == pytest.approx(1.0, rel=0.05)


def test_check_bounds_vacuous_after_zero():
    norms = [0.5] + [0.0] * 30
    rep = check_bounds(synthetic_trace(norms), 0.2, 1.0)
    assert rep.lower_witness == 0.0


def test_check_bounds_validation():
    with pytest.raises(ValueError):
        check_bounds(synthetic_trace([1.0] * 20), 0.2, 0.0)
    with pytest.raises(ValueError):
        check_bounds(synthetic_trace([1.0] * 20), 0.18, np.nan)
    for alpha, vb in ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.18, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            check_bounds(synthetic_trace([1.0] * 20), alpha, vb)


def test_compare_orthonormal_dictionary(rng):
    # pga and oga both finish an orthonormal expansion within dim steps, so
    # a decay fit over the run has too few points
    dim = 6
    d = Dictionary(np.eye(dim), [dim] * dim, [f"e{k + 1}" for k in range(dim)])
    f = CoeffVector(rng.standard_normal(dim))
    for alg in ("pga", "oga"):
        trace = run(alg, f, d, dim, variation_bound=float(np.sum(np.abs(f.coeffs))))
        assert trace.residual_norms[-1] <= 1e-12
        assert len(trace.steps) <= dim
        with pytest.raises(ValueError, match="usable points"):
            fit_decay(trace, 1, len(trace.steps) + 1)


def test_compare_shrink_smoke(small_instance):
    inst = small_instance
    n0 = inst.params.N
    trace = run("pga_shrink", inst.f, inst.dictionary, 30, shrinkage=0.5,
                variation_bound=inst.variation_bound)
    # the run took the shrinkage: its first step keeps half of pga's coefficient
    full = run("pga", inst.f, inst.dictionary, 1).steps[0]
    assert trace.steps[0].coefficient == 0.5 * full.coefficient
    assert len(trace.steps) == 30
    assert np.all(np.diff(trace.residual_norms) <= 1e-14)
    fit = fit_decay(trace, n0 + 1, n0 + 30, index_offset=n0)
    assert fit.points == 30 and fit.slope < 0.0
