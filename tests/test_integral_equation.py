import numpy as np
import pytest

from mpursuit.constants import bundle, solve_beta_star, tau_star
from mpursuit.errors import NumericFailure
from mpursuit.grid_functions import GridFunction, SelfConvPlan, selfconv_on_nodes
from mpursuit.integral_equation import (_MONO_SLACK, apply_T, numeric_rg,
                                        residual_on_refined, solve_f)


def reference_bracket_sequence(G, tau, k=4):
    """The bracket certificate as computed before solve_f carried it.

    Iterates the clamped map k times from f0 = G; when min f3 > 0 the pair
    (g1, g2) = (f3, f2) is checked against the two bracket inequalities
    directly: the unclamped sweep of g1 must stay below g2 and the
    unclamped sweep of g2 must stay above g1.  Returns (iterates, f3_min,
    certified).
    """
    if k < 4:
        raise ValueError("need at least four iterates")
    with SelfConvPlan(G) as plan:
        fs = [G]
        for _ in range(k):
            fs.append(apply_T(G, fs[-1], tau, plan=plan))
        f3_min = float(np.min(fs[3].values))
        certified = False
        if f3_min > 0.0:
            up = G.values - selfconv_on_nodes(fs[3], plan)
            dn = G.values - selfconv_on_nodes(fs[2], plan)
            certified = (float(np.max(up - fs[2].values)) <= _MONO_SLACK
                         and float(np.min(dn - fs[3].values)) >= -_MONO_SLACK)
    return fs, f3_min, certified


def test_apply_t_zero_input(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    zero = GridFunction(tau, 1.0, np.zeros(501))
    out = apply_T(g, zero, tau)
    assert np.array_equal(out.values, g.values)
    assert np.array_equal(g.values - selfconv_on_nodes(zero), g.values)


def test_apply_t_left_endpoint_keeps_g(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    out = apply_T(g, g, tau)
    assert out.values[0] == pytest.approx(g.values[0], rel=1e-14)


def test_apply_t_against_fine_quadrature(op_point):
    # oracle: 10x finer trapezoid quadrature of the analytic power law
    beta, tau = op_point
    b = bundle(beta, tau)
    g = b.g_grid(1001)
    out = g.values - selfconv_on_nodes(g)
    nodes = g.nodes
    for i in (137, 500, 800, 1000):
        a = float(nodes[i])
        fine = np.linspace(tau, a, 10 * 1000 + 1)
        brute = np.trapezoid(b.G(fine) * b.G(fine / a), fine) / a
        assert out[i] == pytest.approx(float(b.G(a)) - brute, abs=1e-8)


def test_apply_t_grid_mismatch():
    g1 = GridFunction(0.5, 1.0, np.ones(11))
    g2 = GridFunction(0.5, 1.0, np.ones(21))
    with pytest.raises(ValueError):
        apply_T(g1, g2, 0.5)


def test_bracket_critical_point_f3_positive():
    bs = solve_beta_star()
    ts = tau_star(bs)
    g = bundle(bs, ts).g_grid(1001)
    rep = solve_f(g, ts)
    assert rep.f3_min > 0.0
    assert rep.bracket_certified
    assert rep.iterates[1].values.max() <= rep.iterates[0].values.max() + 1e-12


def test_bracket_first_iterate_below_g(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    rep = solve_f(g, tau)
    assert np.all(rep.iterates[1].values <= rep.iterates[0].values + 1e-12)


def test_bracket_zero_g_all_zero():
    zero = GridFunction(0.5, 1.0, np.zeros(501))
    rep = solve_f(zero, 0.5)
    for it in rep.iterates:
        assert np.array_equal(it.values, np.zeros(501))
    assert rep.f3_min == 0.0
    assert not rep.bracket_certified


def test_bracket_needs_four_iterates(op_point):
    # the certificate reads f4, so a budget below four sweeps is a usage
    # error even when the bracket would close at once
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(ValueError, match="reads the fourth iterate"):
        solve_f(g, tau, tol=1e9, max_iter=3)
    assert solve_f(g, tau, tol=1e9, max_iter=4).iterations == 4
    with pytest.raises(ValueError):
        reference_bracket_sequence(g, tau, 3)


def _critical_g(m):
    bs = solve_beta_star()
    return bundle(bs, tau_star(bs)).g_grid(m), tau_star(bs)


@pytest.mark.parametrize("case", ["critical-201", "critical-1001", "operating-501", "zero"])
def test_solve_certificate_matches_bracket_sequence(op_point, case):
    """solve_f's certificate from f2, f3, f4 is the two-inequality bracket check."""
    if case == "zero":
        g, tau = GridFunction(0.5, 1.0, np.zeros(501)), 0.5
    elif case == "operating-501":
        g, tau = bundle(*op_point).g_grid(501), op_point[1]
    else:
        g, tau = _critical_g(int(case.split("-")[1]))
    rep = solve_f(g, tau)
    fs, f3_min, certified = reference_bracket_sequence(g, tau)
    assert rep.f3_min == f3_min
    assert rep.bracket_certified == certified
    assert certified == (case != "zero")
    for mine, theirs in zip(rep.iterates, fs):
        assert np.array_equal(mine.values, theirs.values)


def test_solve_residual_and_certificates(coarse_solution):
    beta, tau, g, rep = coarse_solution
    assert rep.residual_sup <= 1e-6
    assert rep.f3_min > 0.0
    assert rep.rg < 1.0
    assert np.isfinite(rep.deriv_sup) and rep.deriv_sup <= rep.deriv_bound


def test_solve_fixed_point_consistency(coarse_solution):
    beta, tau, g, rep = coarse_solution
    fbar = rep.converged_f
    again = g.values - selfconv_on_nodes(fbar)
    assert float(np.max(np.abs(again - fbar.values))) <= 10 * 1e-9


def test_solve_bracket_sandwich(coarse_solution):
    _, _, _, rep = coarse_solution
    even, odd = rep.iterates[-1], rep.iterates[-2]
    if len(rep.iterates) % 2 == 0:
        even, odd = odd, even
    top = np.maximum(even.values, odd.values)
    bot = np.minimum(even.values, odd.values)
    f = rep.converged_f.values
    assert np.all(f <= top + 1e-12) and np.all(f >= bot - 1e-12)


def test_solve_residual_stable_under_grid_doubling(coarse_solution):
    beta, tau, g, rep = coarse_solution
    refined = residual_on_refined(g, rep.converged_f)
    base = max(rep.residual_sup, 1e-12)
    assert refined <= 5 * base and base <= 5 * max(refined, 1e-12)


def test_solve_zero_g():
    zero = GridFunction(0.5, 1.0, np.zeros(501))
    rep = solve_f(zero, 0.5, tol=1e-10, max_iter=20)
    assert np.array_equal(rep.converged_f.values, np.zeros(501))
    assert rep.residual_sup == 0.0


def test_numeric_rg_matches_closed_form(op_point):
    beta, tau = op_point
    b = bundle(beta, tau)
    assert numeric_rg(b.g_grid(1001)) == pytest.approx(b.rg, abs=1e-9)


def test_solve_rejects_expansive_g():
    g = GridFunction(0.5, 1.0, 3.0 * np.ones(501))
    with pytest.raises(NumericFailure, match="contraction"):
        solve_f(g, 0.5)


def test_solve_max_iter_error_carries_width(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(NumericFailure, match="bracket") as exc:
        solve_f(g, tau, tol=1e-15, max_iter=6)
    assert hasattr(exc.value, "bracket_width")
    assert exc.value.bracket_width > 0.0


def test_solve_tol_validation(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_f(g, tau, tol=tol)


@pytest.mark.parametrize("max_iter", [0, -5, 1, 2, 3])
def test_solve_max_iter_validation(op_point, max_iter):
    # a usage error, not a bracket that "did not close within 3 sweeps"
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(ValueError, match="max_iter must be at least 4: the bracket "
                                         "certificate reads the fourth iterate"):
        solve_f(g, tau, max_iter=max_iter)
