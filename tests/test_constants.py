import operator

import numpy as np
import pytest

from mpursuit import cli
from mpursuit.constants import (Condition, beta_condition_lhs, bundle, gamma_equation,
                                operating_point, solve_beta_star, solve_gamma,
                                tau_star)
from mpursuit.errors import NumericFailure

# frozen from an independent bracketing solve (scipy.optimize.brentq at
# xtol=1e-14) run before this module was written
GAMMA_S1 = 1.152343688265
BETA_STAR = 0.3172242936969573
TAU_STAR = 0.4646098136891834
RG_CRITICAL = 0.8677966566601537


def test_gamma_s1_exponent():
    r = solve_gamma(1.0)
    assert 0.182 <= r.alpha <= 0.183
    assert abs(r.residual) <= 1e-12
    assert r.gamma == pytest.approx(GAMMA_S1, abs=1e-9)
    assert abs(r.gamma - 1.15) < 0.01


def test_gamma_small_shrinkage_exponent():
    r = solve_gamma(1e-6)
    assert 0.304 <= r.alpha <= 0.306


def test_alpha_strictly_decreasing_in_shrinkage():
    alphas = [solve_gamma(s).alpha for s in (0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_gamma_domain_errors():
    for s in (0.0, -0.2, 1.5, 2.0):
        with pytest.raises(ValueError):
            solve_gamma(s)


def test_gamma_residual_is_at_root():
    r = solve_gamma(0.5)
    assert gamma_equation(r.gamma, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert r.beta == pytest.approx(0.5 - r.alpha)


def test_beta_star_value_and_residual():
    bs = solve_beta_star()
    assert bs == pytest.approx(BETA_STAR, abs=1e-12)
    assert abs(bs - 0.317) < 0.005
    assert abs(beta_condition_lhs(bs) - 1.0) <= 1e-12


def test_beta_star_matches_rate_equation_exponent():
    assert abs((0.5 - solve_beta_star()) - solve_gamma(1.0).alpha) <= 1e-9


def test_beta_condition_region_below_critical():
    bs = solve_beta_star()
    assert beta_condition_lhs(bs / 2) < 1.0


def test_tau_star_at_critical_beta():
    ts = tau_star(solve_beta_star())
    assert ts == pytest.approx(TAU_STAR, abs=1e-12)
    assert abs(ts - 0.465) < 0.01


def test_tau_star_defining_identity():
    for beta in (0.05, 0.15, 0.25, 0.35, 0.45):
        ts = tau_star(beta)
        assert ((1 - beta) ** 2 / (1 - 2 * beta)) * ts ** beta == pytest.approx(
            1.0, abs=1e-12)


def test_tau_star_hand_value():
    assert tau_star(0.25) == pytest.approx((8.0 / 9.0) ** 4, abs=1e-14)


def test_tau_star_domain():
    with pytest.raises(ValueError):
        tau_star(0.5)
    with pytest.raises(ValueError):
        tau_star(0.0)


def test_bundle_critical_point_c_is_one():
    bs = solve_beta_star()
    b = bundle(bs, tau_star(bs))
    assert b.c == pytest.approx(1.0, abs=1e-9)


def test_bundle_rg_dual_evaluation():
    bs = solve_beta_star()
    b = bundle(bs, tau_star(bs))
    assert b.rg == pytest.approx(RG_CRITICAL, abs=1e-10)
    assert 0.86 <= b.rg <= 0.88
    assert b.rg < 1.0
    assert abs(b.rg - b.rg_scan) <= 1e-8


def test_bundle_f_endpoints():
    bs = solve_beta_star()
    ts = tau_star(bs)
    b = bundle(bs, ts)
    assert b.F(ts) == pytest.approx(0.0, abs=1e-14)
    assert b.F(1.0) == pytest.approx(bs / (1 - 2 * bs), abs=1e-10)


def test_bundle_g_closed_form():
    beta, tau = operating_point(**cli._MARGINS)
    b = bundle(beta, tau)
    a = np.linspace(tau, 1.0, 7)
    assert np.allclose(b.G(a), b.c * tau ** -beta * a ** (beta - 1.0), rtol=1e-14)


def test_differential_identity_aGprime():
    # a F'(a) - beta F(a) = c with F' = G, on sampled points
    beta, tau = operating_point(**cli._MARGINS)
    b = bundle(beta, tau)
    a = np.linspace(tau, 1.0, 101)
    assert np.max(np.abs(a * b.G(a) - beta * b.F(a) - b.c)) < 1e-10


def test_c_monotone_in_tau_and_threshold():
    # c grows with tau (the denominator tau^-beta - 1 shrinks) and crosses
    # 1 exactly at tau*; below tau* it stays below 1
    bs = solve_beta_star()
    ts = tau_star(bs)
    taus = np.linspace(0.05, ts * 0.999, 40)
    cs = [bundle(bs, float(t)).c for t in taus]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert all(c < 1 for c in cs)
    assert bundle(bs, min(0.99, ts * 1.05)).c > 1.0


def test_beta_power_bound_sweep():
    for beta in np.arange(0.05, 0.46, 0.05):
        assert beta * (1 - beta) ** (1 / beta) < 1.0


def test_bundle_flags_violations_without_raising():
    bs = solve_beta_star()
    b = bundle(bs, min(0.99, tau_star(bs) * 1.05))
    names = {m.name: m.passed for m in b.condition_margins}
    assert names["c_below_one"] is False
    assert not b.all_strict


INEQUALITIES = {"<": operator.lt, ">": operator.gt, "<=": operator.le}


@pytest.mark.parametrize("sense", list(INEQUALITIES))
def test_condition_passes_exactly_when_its_inequality_holds(sense):
    # below, at and above the bound: at it only "<=" holds, so a "<=" turned
    # into "<" fails here; a NaN value fails every sense
    for value in (0.5, 1.0, 1.5):
        assert Condition("x", value, 1.0, sense).passed is INEQUALITIES[sense](value, 1.0)
    assert Condition("x", 1.0, 1.0, sense).passed is (sense == "<=")
    assert Condition("x", np.nan, 1.0, sense).passed is False


def test_tau_at_tau_star_fails_c_below_one():
    # c = 1 at tau = tau*; here it rounds to 1 + 4e-16, above the strict bound
    beta, tau = operating_point(cli._MARGINS["beta_margin"], 1.0)
    b = bundle(beta, tau)
    assert [m.name for m in b.condition_margins if not m.passed] == ["c_below_one"]
    assert not b.all_strict


def test_operating_point_strict_margins():
    beta, tau = operating_point(**cli._MARGINS)
    assert beta < solve_beta_star()
    assert tau < tau_star(beta)
    assert bundle(beta, tau).all_strict


def test_operating_point_validation():
    with pytest.raises(ValueError):
        operating_point(**{**cli._MARGINS, "beta_margin": 0.5})
    with pytest.raises(ValueError):
        operating_point(**{**cli._MARGINS, "tau_margin": 0.0})


def test_no_root_error():
    from mpursuit.constants import _hybrid_root
    with pytest.raises(NumericFailure, match="no root"):
        _hybrid_root(lambda x: 1.0 + x * x, 0.0, 1.0, "equation")
