import numpy as np
import pytest

from mpursuit import phi_builder
from mpursuit.constants import bundle
from mpursuit.errors import NumericFailure
from mpursuit.grid_functions import GridFunction
from mpursuit.phi_builder import (bump_kernel, build_profile, check_conditions,
                                  mollify, normalize, scale_root, weighted_mass)

_GL = np.polynomial.legendre.leggauss(96)


def test_kernel_mass_unit():
    nodes, weights = _GL
    assert abs(float(weights @ bump_kernel(nodes)) - 1.0) <= 1e-10


def test_kernel_support():
    u = np.array([-1.5, -1.0, 1.0, 2.0])
    assert np.array_equal(bump_kernel(u), np.zeros(4))
    assert bump_kernel(np.array([0.0]))[0] > 0


def on_support(lo, fn, m=1001):
    x = np.linspace(lo, 1.0, m)
    return GridFunction(lo, 1.0, fn(x))


def test_mollify_zero_function():
    f = on_support(0.46, lambda x: np.zeros_like(x), m=501)
    out = mollify(f, 0.05)
    assert np.array_equal(out.values, np.zeros(501))


def test_mollify_constant_away_from_jump():
    tau = 0.46
    f = on_support(tau, lambda x: np.ones_like(x), m=1001)
    t = 0.02
    out = mollify(f, t)
    assert out(tau + 2 * t) == pytest.approx(1.0, abs=1e-8)
    assert out(1.0) == pytest.approx(1.0, abs=1e-8)


def test_mollify_vanishes_left_of_support():
    tau = 0.46
    t = 0.03
    f = on_support(tau, lambda x: 1 + x, m=501)
    out = mollify(f, t)
    nodes = out.nodes
    assert np.array_equal(out.values[nodes < tau - t],
                          np.zeros(int((nodes < tau - t).sum())))
    assert np.all(out.values >= 0.0)


def test_mollify_ramp_against_fine_quadrature(coarse_solution):
    # independent oracle: dense trapezoid of the same convolution integrand.
    # Compared at output grid nodes: off-node evaluation adds interpolation
    # error on the steep ramp, which is not the quadrature's contract.
    beta, tau, _, rep = coarse_solution
    f = rep.converged_f
    t = 0.01
    out = mollify(f, t)
    nodes = out.nodes
    for target in (tau, tau + 0.5 * t, tau + 4 * t, 0.9):
        i = int(np.argmin(np.abs(nodes - target)))
        x = float(nodes[i])
        u_hi = min(1.0, (x - tau) / t)
        if u_hi <= -1.0:
            expected = 0.0
        else:
            uu = np.linspace(-1.0, u_hi, 200001)
            # u <= u_hi keeps x - t u >= tau; above 1 the profile holds f(1)
            expected = np.trapezoid(bump_kernel(uu) * f(np.minimum(x - t * uu, 1.0)), uu)
        assert out.values[i] == pytest.approx(expected, abs=1e-8)
    # mid-ramp value is strictly between 0 and the jump height
    i_mid = int(np.argmin(np.abs(nodes - tau)))
    assert 0.0 < out.values[i_mid] < float(rep.converged_f(tau))


def test_mollify_extends_by_zero_and_hold_and_requires_valid_width():
    # the bump reaches t past both ends of [tau, 1]: below tau the profile
    # is zero, above 1 it holds f(1), which a plain evaluation refuses
    tau, t = 0.46, 0.01
    f = on_support(tau, lambda x: 2.0 - x, m=501)
    with pytest.raises(ValueError, match="outside the grid interval"):
        f(1.0 + t)
    with pytest.raises(ValueError, match="outside the grid interval"):
        f(tau - t)
    out = mollify(f, t)
    uu = np.linspace(0.0, 1.0, 200001)
    m1 = np.trapezoid(uu * bump_kernel(uu), uu)  # first moment of the bump's right half
    nodes = out.nodes
    i = int(np.argmin(np.abs(nodes - tau)))
    # zero below tau removes the window's left half; a held f(1) lifts the
    # right end above the linear continuation's value 1
    assert out.values[i] == pytest.approx((2.0 - nodes[i]) / 2 - t * m1, abs=1e-6)
    assert out.values[-1] == pytest.approx(1.0 + t * m1, abs=1e-6)
    j = int(np.argmin(np.abs(nodes - (tau + 2 * t))))
    assert out.values[j] == pytest.approx(2.0 - nodes[j], abs=1e-9)
    with pytest.raises(ValueError):
        mollify(f, tau)
    with pytest.raises(ValueError):
        mollify(f, 0.0)


def test_scale_root_quadratic_example():
    assert scale_root(0.5, 0.25, 0.75) == pytest.approx(1.0, abs=1e-15)


def test_scale_root_linear_limit():
    assert scale_root(0.5, 0.0, 0.5) == pytest.approx(1.0)
    assert scale_root(0.5, 1e-15, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_scale_root_degenerate():
    with pytest.raises(NumericFailure, match="degenerate"):
        scale_root(0.0, 0.0, 0.5)


def test_normalize_restores_mass_identity(coarse_solution):
    beta, tau, _, rep = coarse_solution
    f = rep.converged_f
    c_t, phi = normalize(mollify(f, 0.01), beta)
    target = beta / (1 - 2 * beta)
    assert abs(weighted_mass(phi) - target) <= 1e-8
    assert 0.9 <= c_t <= 1.1


def test_normalize_trend_toward_one(coarse_solution):
    beta, tau, _, rep = coarse_solution
    f = rep.converged_f
    gaps = []
    for t in (0.02, 0.01, 0.005):
        c_t, _ = normalize(mollify(f, t), beta)
        assert 0.9 <= c_t <= 1.1
        gaps.append(abs(c_t - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_check_conditions_zero_function():
    phi = GridFunction(0.0, 1.0, np.zeros(501))
    rep = check_conditions(phi, 0.315, 0.46, "phi_form")
    entry = {e.name: e for e in rep.entries}
    assert entry["growth_bound_sup"].value == 0.0
    assert entry["growth_bound_sup"].passed
    assert entry["tail_bound_sup"].value == 0.0
    assert entry["tail_bound_sup"].passed
    assert not entry["weighted_mass_residual"].passed  # zero misses the target


def test_check_conditions_f_form(coarse_solution):
    beta, tau, _, rep = coarse_solution
    report = check_conditions(rep.converged_f, beta, tau, "f_form")
    assert report.all_pass
    entry = {e.name: e for e in report.entries}
    s1 = entry["growth_bound_sup"].value
    s2 = entry["tail_bound_sup"].value
    assert s1 < 1.0 and s2 < 1.0
    # at a = tau the first expression collapses to tau f(tau) = c
    c = bundle(beta, tau).c
    assert s1 >= c - 1e-9
    assert tau * float(rep.converged_f(tau)) == pytest.approx(c, abs=1e-6)


def test_check_conditions_mode_validation(coarse_solution):
    _, _, _, rep = coarse_solution
    with pytest.raises(ValueError):
        check_conditions(rep.converged_f, 0.3, 0.46, "other")


def test_build_profile_certificate(profile05, op_point):
    beta, tau = op_point
    prof = profile05
    assert prof.beta == beta and prof.tau == tau
    phi = prof.phi
    assert float(np.min(phi.values)) >= 0.0
    nodes = phi.nodes
    assert np.array_equal(phi.values[nodes <= prof.delta],
                          np.zeros(int((nodes <= prof.delta).sum())))
    assert prof.delta < prof.tau - prof.t
    # phi's support starts at the first nonzero piece, at or above delta;
    # below it every evaluation is +0.0
    edge = prof.support_lo
    k = int(np.flatnonzero(nodes == edge)[0])
    assert prof.delta <= edge < prof.tau and phi.pieces[:, k].any()
    assert not phi.pieces[:, :k].any()
    below = phi(np.linspace(0.0, edge, 4001)[:-1])
    assert not below.any() and not np.signbit(below).any()
    for n in (500, 900, 2500, 5000):
        i0 = prof.first_live(n)
        assert not phi(np.arange(1, i0) / n).any() and i0 / n <= edge
    target = beta / (1 - 2 * beta)
    assert abs(weighted_mass(phi) - target) <= 1e-8


def test_phi_conditions_stable_under_grid_doubling(coarse_solution, monkeypatch):
    beta, tau, _, rep = coarse_solution
    f = rep.converged_f
    _, phi = normalize(mollify(f, 0.05), beta)
    monkeypatch.setattr(phi_builder, "_A_POINTS", 1000)
    r1 = {e.name: e for e in check_conditions(phi, beta, tau, "phi_form").entries}
    r2 = {e.name: e for e in check_conditions(phi.refined(2), beta, tau, "phi_form").entries}
    for name in ("growth_bound_sup", "tail_bound_sup"):
        assert abs(r1[name].value - r2[name].value) < 1e-4


def test_f_consistency_with_closed_form(coarse_solution):
    # assembled F(a) = integral_tau^a f (1 + tail(x/a)) dx against the
    # closed-form F, uniformly over sampled a
    beta, tau, _, rep = coarse_solution
    f = rep.converged_f
    b = bundle(beta, tau)
    nodes = f.nodes
    worst = 0.0
    for a in np.linspace(tau, 1.0, 51):
        j = int(np.floor((a - tau) / f.h + 1e-12))
        xs = nodes[: j + 1]
        if len(xs) < 3:
            continue
        inner = 1.0 + f.log_between(np.minimum(xs / a, 1.0), 1.0)
        vals = f.values[: j + 1] * inner
        approx = GridFunction(tau, float(xs[-1]), vals).integrate() if len(xs) % 2 == 1 else np.trapezoid(vals, xs)
        worst = max(worst, abs(approx - float(b.F(xs[-1]))))
    assert worst < 1e-5


def test_build_profile_fallback_exhaustion(coarse_solution, monkeypatch):
    # a beta far above the admissible one inflates the mass target so the
    # sup conditions fail at every width in the schedule
    beta, tau, _, rep = coarse_solution
    fbar = rep.converged_f
    monkeypatch.setattr(phi_builder, "_T_MIN", 0.009)
    with pytest.raises(NumericFailure, match="fallback"):
        build_profile(fbar, 0.45, t=0.02)
