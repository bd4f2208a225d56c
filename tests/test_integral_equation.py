import re
import tracemalloc

import numpy as np
import pytest

from mpursuit import cli
from mpursuit.constants import bundle, solve_beta_star, tau_star
from mpursuit.errors import NumericFailure
from mpursuit.grid_functions import (GridFunction, SelfConvPlan, scaled_selfconv,
                                     selfconv_on_nodes)
from mpursuit.integral_equation import (_MONO_SLACK, apply_T, check_box, numeric_rg,
                                        residual_on_refined, solve_f, sweep_rounding)
from mpursuit.phi_builder import build_profile

SOLVE = {key: cli._SOLVE[key] for key in ("tol", "max_iter")}  # the CLI defaults


def reference_bracket_sequence(G, k=4):
    """The bracket certificate as computed before solve_f carried it.

    Iterates the clamped map k times from f0 = G; when min f3 > 0 the pair
    (g1, g2) = (f3, f2) is checked against the two bracket inequalities
    directly: the unclamped sweep of g1 must stay below g2 and the
    unclamped sweep of g2 must stay above g1.  Returns (iterates, f3_min,
    certified).
    """
    if k < 4:
        raise ValueError("need at least four iterates")
    plan = SelfConvPlan(G)
    fs = [G]
    for _ in range(k):
        fs.append(apply_T(G, fs[-1], plan=plan))
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
    out = apply_T(g, zero)
    assert np.array_equal(out.values, g.values)
    assert np.array_equal(g.values - selfconv_on_nodes(zero), g.values)


def test_apply_t_left_endpoint_keeps_g(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    out = apply_T(g, g)
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
        apply_T(g1, g2)


def test_bracket_critical_point_f3_positive():
    bs = solve_beta_star()
    ts = tau_star(bs)
    g = bundle(bs, ts).g_grid(1001)
    rep = solve_f(g, **SOLVE)
    assert rep.f3_min > 0.0
    assert rep.bracket_certified
    assert rep.iterates[1].values.max() <= rep.iterates[0].values.max() + 1e-12


def test_bracket_first_iterate_below_g(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    rep = solve_f(g, **SOLVE)
    assert np.all(rep.iterates[1].values <= rep.iterates[0].values + 1e-12)


def test_bracket_zero_g_all_zero():
    zero = GridFunction(0.5, 1.0, np.zeros(501))
    rep = solve_f(zero, **SOLVE)
    for it in rep.iterates:
        assert np.array_equal(it.values, np.zeros(501))
    assert rep.f3_min == 0.0
    assert not rep.bracket_certified


def test_bracket_needs_four_iterates(op_point):
    # the certificate reads f4, so a budget below four sweeps is a usage
    # error even when the tolerance is met at once; four sweeps, two power
    # sweeps and the box's two make eight
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(ValueError, match="reads the fourth iterate"):
        solve_f(g, tol=1e9, max_iter=3)
    assert solve_f(g, tol=1e9, max_iter=4).iterations == 8
    with pytest.raises(ValueError):
        reference_bracket_sequence(g, 3)


def _critical_g(m):
    bs = solve_beta_star()
    return bundle(bs, tau_star(bs)).g_grid(m)


@pytest.mark.parametrize("case", ["critical-201", "critical-1001", "operating-501", "zero"])
def test_solve_certificate_matches_bracket_sequence(op_point, case):
    """solve_f's certificate from f2, f3, f4 is the two-inequality bracket check."""
    if case == "zero":
        g = GridFunction(0.5, 1.0, np.zeros(501))
    elif case == "operating-501":
        g = bundle(*op_point).g_grid(501)
    else:
        g = _critical_g(int(case.split("-")[1]))
    rep = solve_f(g, **SOLVE)
    fs, f3_min, certified = reference_bracket_sequence(g)
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
    """The box sandwiches the profile and the sweeps of its corners: T maps
    it into itself, so it holds the grid solution.  The third and fourth
    iterates, the certified bracket, sandwich the profile too."""
    _, _, g, rep = coarse_solution
    f, lo, hi = rep.converged_f.values, rep.box_lo, rep.box_hi
    assert np.all(lo <= f) and np.all(f <= hi) and np.all(lo >= 0.0)
    assert float(np.max(hi - lo)) == pytest.approx(2.0 * rep.box_half_width, rel=1e-12)
    assert 0.0 < rep.box_half_width < 1e-8
    t_lo, t_hi = (apply_T(g, GridFunction(g.lo, g.hi, v)).values for v in (lo, hi))
    assert np.all(lo <= t_hi) and np.all(t_hi <= t_lo) and np.all(t_lo <= hi)
    top = np.maximum(rep.iterates[3].values, rep.iterates[4].values)
    bot = np.minimum(rep.iterates[3].values, rep.iterates[4].values)
    assert np.all(bot <= f) and np.all(f <= top)


def test_a_box_shrunk_below_its_computed_half_width_fails(coarse_solution):
    """The solve's box passes its check again; the same box shrunk about the
    profile to a quarter of its half-width does not."""
    _, _, g, rep = coarse_solution
    f = rep.converged_f.values
    check_box(g, rep.box_lo, rep.box_hi)
    with pytest.raises(NumericFailure, match="box check"):
        check_box(g, f - (f - rep.box_lo) / 4, f + (rep.box_hi - f) / 4)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_the_box_check_reads_both_sides(coarse_solution, side):
    """[lo, 2 G + 1] fails only T(hi) >= lo: the sweep of so large a profile
    falls below the profile.  [0, hi] fails only T(lo) <= hi: T(0) = G lies
    above the profile wherever the self-convolution is positive."""
    _, _, g, rep = coarse_solution
    if side == "lower":
        box, fails = (rep.box_lo, 2.0 * g.values + 1.0), r"T\(hi\) >= lo"
    else:
        box, fails = (np.zeros(g.m), rep.box_hi), r"T\(lo\) <= hi"
    with pytest.raises(NumericFailure, match=f"box check {fails} fails"):
        check_box(g, *box)


def test_the_box_check_allows_for_the_sweep_rounding(coarse_solution):
    """A lower corner raised at one node to half the rounding allowance below
    T(hi) is refused there, though T(hi) >= lo holds in floats."""
    _, _, g, rep = coarse_solution
    lo, hi = rep.box_lo.copy(), rep.box_hi
    t_hi = apply_T(g, GridFunction(g.lo, g.hi, hi)).values
    k = g.m // 2
    lo[k] = t_hi[k] - 0.5 * sweep_rounding(g, t_hi)[k]
    assert rep.box_lo[k] < lo[k] < t_hi[k] < hi[k]
    with pytest.raises(NumericFailure, match=rf"T\(hi\) >= lo fails at node {k} "):
        check_box(g, lo, hi)


def test_mixing_is_clamped_where_the_solution_vanishes(op_point):
    """A dip in G makes the solution 0 on an interval, where Anderson's
    extrapolation undershoots.  Clamped at 0, the mixed iterates stay
    admissible; the sweep maps the profile to itself within tol, and the
    box holds it."""
    beta, tau = op_point
    x = np.linspace(tau, 1.0, 501)
    g = GridFunction(tau, 1.0, bundle(beta, tau).G(x) * (1.0 - np.exp(-((x - 0.85) / 0.05) ** 2)))
    rep = solve_f(g, **SOLVE)
    f = rep.converged_f.values
    assert f.min() == 0.0 and np.count_nonzero(f == 0.0) > 50
    assert float(np.max(np.abs(apply_T(g, rep.converged_f).values - f))) < SOLVE["tol"]
    assert np.all(rep.box_lo <= f) and np.all(f <= rep.box_hi)
    assert rep.iterations <= 24


def test_solve_residual_stable_under_grid_doubling(coarse_solution):
    beta, tau, g, rep = coarse_solution
    refined = residual_on_refined(g, rep.converged_f)
    base = max(rep.residual_sup, 1e-12)
    assert refined <= 5 * base and base <= 5 * max(refined, 1e-12)


def test_solve_zero_g():
    zero = GridFunction(0.5, 1.0, np.zeros(501))
    rep = solve_f(zero, tol=1e-10, max_iter=20)
    assert np.array_equal(rep.converged_f.values, np.zeros(501))
    assert rep.residual_sup == 0.0


def test_numeric_rg_matches_closed_form(op_point):
    beta, tau = op_point
    b = bundle(beta, tau)
    assert numeric_rg(b.g_grid(1001)) == pytest.approx(b.rg, abs=1e-9)


def test_solve_rejects_expansive_g():
    g = GridFunction(0.5, 1.0, 3.0 * np.ones(501))
    with pytest.raises(NumericFailure, match="contraction"):
        solve_f(g, **SOLVE)


def test_solve_max_iter_error_carries_width(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(NumericFailure, match=r"sup\|Tf - f\| < tol within 6 sweeps") as exc:
        solve_f(g, tol=1e-15, max_iter=6)
    width = re.search(r"\(last (\S+)\)$", str(exc.value))
    assert width and float(width.group(1)) > 0.0


def test_solve_tol_validation(op_point):
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_f(g, tol=tol, max_iter=SOLVE["max_iter"])


@pytest.mark.parametrize("max_iter", [0, -5, 1, 2, 3])
def test_solve_max_iter_validation(op_point, max_iter):
    # a usage error, not a bracket that "did not close within 3 sweeps"
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)
    with pytest.raises(ValueError, match="max_iter must be at least 4: the bracket "
                                         "certificate reads the fourth iterate"):
        solve_f(g, tol=SOLVE["tol"], max_iter=max_iter)


def test_selfconv_without_a_plan_equals_the_plan_bit_for_bit(coarse_solution):
    """On the 2001 and 4001 grids, of solve_f and of residual_on_refined,
    the sweep that keeps no tables gives the bits of a plan's second sweep,
    which reads the tables its first sweep stored.  Its memory is that of a
    block, the same on both grids, where a plan's tables take 16 bytes a
    point: 32 MB and 128 MB."""
    _, _, g, rep = coarse_solution
    peaks = []
    for factor in (2, 4):
        for fn in (rep.converged_f.refined(factor), g.refined(factor)):
            plan = SelfConvPlan(fn)
            plan.sweep(fn)
            want = plan.sweep(fn)  # from the tables its first sweep stored
            assert plan._tables is not None
            del plan  # and its tables, before the plan-less sweep
            tracemalloc.start()
            try:
                got = selfconv_on_nodes(fn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes()
            peaks.append(peak)
    points = 4001 * 4002 // 2
    assert max(peaks[2:]) < 1.5 * min(peaks[:2]) and max(peaks) < 32 * points / 8


def watch_located(monkeypatch) -> list:
    """The (plan, (first, stop)) of every SelfConvPlan._located call from now on."""
    located, locate = [], SelfConvPlan._located
    monkeypatch.setattr(SelfConvPlan, "_located",
                        lambda self, *rows: located.append((self, rows)) or locate(self, *rows))
    return located


def test_a_plan_stores_its_tables_during_its_first_sweep(coarse_solution, monkeypatch):
    """A plan builds no tables when made and stores them in its first sweep,
    locating each block once; later sweeps read them, with the same bits.
    The tables hold a column, a piece and s: 16 bytes a point.  A sweep
    without a plan locates every block and its plan stores no tables."""
    f = coarse_solution[3].converged_f
    located = watch_located(monkeypatch)
    plan = SelfConvPlan(f)
    blocks = sorted(block for chunk in plan._chunks for block in chunk)
    assert plan._tables is None
    first = plan.sweep(f)
    tables = plan._tables
    assert tables is not None and tables[0].size == f.m * (f.m + 1) // 2
    assert sum(table.nbytes for table in tables) == 16 * tables[0].size
    assert sorted(rows for _, rows in located) == blocks
    assert plan.sweep(f).tobytes() == plan.sweep(f).tobytes() == first.tobytes()
    assert plan._tables is tables and len(located) == len(blocks)
    located.clear()
    assert selfconv_on_nodes(f).tobytes() == first.tobytes()
    assert sorted(rows for _, rows in located) == blocks
    assert all(owner is not plan and owner._tables is None for owner, _ in located)


def test_a_default_solve_locates_each_point_once(op_point, monkeypatch):
    """The default grid's 2,003,001 points lie in 31 blocks: the solve's one
    plan locates each block in its first sweep and reads its tables in the
    other 16 sweeps: four plain sweeps, eight mixed ones, two power sweeps,
    the box's two and the residual.  A plan that stored its tables before
    its second sweep located each block twice, 62 calls."""
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(cli._SOLVE["grid_m"])
    located = watch_located(monkeypatch)
    report = solve_f(g, tol=SOLVE["tol"], max_iter=SOLVE["max_iter"])
    assert report.iterations == 16
    assert len(located) == len({rows for _, rows in located}) == 31


def test_a_stale_positional_tau_is_a_type_error(op_point):
    """tau is the grid's left endpoint: passed as before, it is not taken for
    a tolerance, a plan or a mollification width."""
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(201)
    with pytest.raises(TypeError):
        solve_f(g, tau)
    with pytest.raises(TypeError):
        apply_T(g, g, tau)
    with pytest.raises(TypeError):
        build_profile(g, beta, tau)
    with pytest.raises(TypeError):
        scaled_selfconv(g, 0.7, tau)
