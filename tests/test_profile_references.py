"""The whole-array profile kernels against literal per-point references.

`reference_check_conditions` and `reference_mollify` are the per-a and
per-node loops that `check_conditions` and `mollify` replaced,
`reference_selfconv` is the self-convolution sweep as one serial
`ppoly_at` over every query point, and `ppoly_at` is PPoly's evaluation
written out: a search of the interior nodes and the terms summed left to
right in one pass over all points.  The kernels must match them bit for
bit: the profile, phi.csv and the certificate are output bodies.
"""

import operator
import os
import sys
import threading
import warnings
import weakref
from concurrent import futures
from functools import reduce

import numpy as np
import pytest

from mpursuit import adversarial, cli, integral_equation, phi_builder
from mpursuit.constants import Condition, bundle
from mpursuit import grid_functions
from mpursuit.grid_functions import (_EDGE_SLACK, GridFunction, SelfConvPlan,
                                     _corrected_trapezoid, _locate, _terms, selfconv_on_nodes)
from mpursuit.integral_equation import solve_f
from mpursuit.phi_builder import (_GL_PIECE_NODES, _GL_PIECE_WEIGHTS, ConditionReport,
                                  _extended, bump_kernel, check_conditions, mollify)


# -- references -------------------------------------------------------------


def ppoly_at(c, nodes, x):
    """Piece table c at the points x as PPoly evaluates it: the interval by
    a search of the interior nodes, the terms summed left to right."""
    i = np.searchsorted(nodes[1:-1], x, "right")
    return reduce(operator.add, _terms(c.take(i, axis=1), x - nodes[i]))


def reference_mollify(f, t):
    tau = f.lo
    xs = np.linspace(0.0, 1.0, f.m)
    out = np.zeros(f.m)
    f_nodes = f.nodes
    for i, x in enumerate(xs):
        u_hi = min(1.0, (x - tau) / t)
        if u_hi <= -1.0:
            continue
        inner = [(x - 1.0) / t]
        z_lo, z_hi = x - t * u_hi, x + t
        j0 = int(np.searchsorted(f_nodes, z_lo, side="right"))
        j1 = int(np.searchsorted(f_nodes, z_hi, side="left"))
        inner.extend((x - f_nodes[j0:j1]) / t)
        cuts = np.concatenate([[-1.0],
                               np.sort([u for u in inner if -1.0 < u < u_hi]),
                               [u_hi]])
        refined = [cuts[0]]
        for c in cuts[1:]:
            w = c - refined[-1]
            if w > 0.05:
                parts = int(np.ceil(w / 0.05))
                refined.extend(refined[-1] + w * np.arange(1, parts) / parts)
            refined.append(c)
        cuts = np.asarray(refined)
        mid = 0.5 * (cuts[1:] + cuts[:-1])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        uu = (mid[:, None] + half[:, None] * _GL_PIECE_NODES).ravel()
        ww = (half[:, None] * _GL_PIECE_WEIGHTS).ravel()
        out[i] = float((ww * bump_kernel(uu)) @ _extended(f, x - t * uu))
    return GridFunction(0.0, 1.0, out)


def _prefix_integral(g_prefix, h, rem, tail_val):
    total = _corrected_trapezoid(g_prefix, h)
    if rem > 1e-13:
        total += rem * 0.5 * (g_prefix[-1] + tail_val)
    return total


def reference_check_conditions(fn, beta, tau, mode, a_points=2000, extra_points=None):
    """The report, each condition's pass flag from its own inequality, and
    each inequality's value at each a (0 where a is skipped)."""
    lo = fn.lo
    nodes = fn.nodes
    h = fn.h
    vals = fn.values
    dvals = fn.derivative(nodes)
    tails = fn.log_between(nodes, fn.hi)

    a_lo = tau if mode == "f_form" else 0.0
    a_grid = [np.linspace(a_lo, 1.0, a_points)]
    b1 = tau * ((1.0 - beta) / (1.0 - 2.0 * beta)) ** (1.0 / beta)
    for cand in (b1, tau, 1.0):
        if a_lo <= cand <= 1.0:
            a_grid.append(np.array([cand]))
    if extra_points is not None:
        pts = np.asarray(extra_points, dtype=np.float64)
        a_grid.append(pts[(pts >= a_lo) & (pts <= 1.0)])
    a_all = np.unique(np.concatenate(a_grid))

    core = dvals * nodes - (beta - 1.0) * vals
    growth, tail = [], []
    sup1 = 0.0
    for a in a_all:
        if a <= lo + 1e-15:
            growth.append(vals[0] * tau if mode == "f_form" else 0.0)
            if mode == "f_form":
                sup1 = max(sup1, abs(vals[0] * tau))
            continue
        j = min(int(np.floor((a - lo) / h + 1e-12)), fn.m - 1)
        xs = nodes[: j + 1]
        inner = 1.0 + fn.log_between(np.minimum(xs / a, fn.hi), fn.hi)
        g = core[: j + 1] * inner
        tail_val = float(fn.derivative(a)) * a - (beta - 1.0) * float(fn(a))
        v = _prefix_integral(g, h, a - nodes[j], tail_val)
        if mode == "f_form":
            v += vals[0] * tau * (1.0 + float(fn.log_between(min(tau / a, fn.hi), fn.hi)))
        growth.append(v)
        sup1 = max(sup1, abs(v))

    base = (beta - 1.0) * (1.0 + tails) + vals
    sup2 = 0.0
    for a in a_all:
        between = fn.log_between(np.clip(a * nodes, lo, fn.hi), nodes)
        v = GridFunction(lo, fn.hi, base * between).integrate()
        v += float(fn.log_between(np.clip(a, lo, fn.hi), fn.hi))
        tail.append(v)
        sup2 = max(sup2, abs(v))

    target = beta / (1.0 - 2.0 * beta)
    weighted = GridFunction(fn.lo, fn.hi, fn.values * (1.0 + tails)).integrate()
    resid = abs(weighted - target)
    mass_tol = 1e-6 if mode == "f_form" else 1e-8
    entries = (
        Condition("weighted_mass_residual", resid, mass_tol, "<="),
        Condition("growth_bound_sup", sup1, 1.0, "<"),
        Condition("tail_bound_sup", sup2, 1.0, "<"),
    )
    passed = (resid <= mass_tol, sup1 < 1.0, sup2 < 1.0)
    return ConditionReport(mode=mode, entries=entries), passed, growth, tail


def reference_selfconv(f):
    """The sweep with one serial `ppoly_at` over every query point x_j / x_i."""
    m, nodes, h = f.m, f.nodes, f.h
    counts = np.arange(1, m + 1)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    row_ends = offsets + np.arange(m)
    rows = np.repeat(np.arange(m), counts)
    cols = np.concatenate([np.arange(i + 1) for i in range(m)])
    nonneg = float(np.min(f.values)) >= 0.0
    q = ppoly_at(f.pieces, nodes, np.minimum(nodes[cols] / nodes[rows], f.hi))
    if nonneg:
        q = np.maximum(q, 0.0)
    p = q * f.values[cols]
    sums = np.add.reduceat(p, offsets)
    out = np.zeros(m)
    out[1:] = (h * (sums - 0.5 * (p[offsets] + p[row_ends])))[1:]
    o, e = offsets[2:], row_ends[2:]
    out[2:] += h / 24.0 * (-3.0 * p[o] + 4.0 * p[o + 1] - p[o + 2]
                           - 3.0 * p[e] + 4.0 * p[e - 1] - p[e - 2])
    x_mid = 0.5 * (nodes[0] + nodes[1])
    f1 = f(x_mid)
    f2 = f(min(x_mid / nodes[1], f.hi))
    if nonneg:
        f1, f2 = max(f1, 0.0), max(f2, 0.0)
    out[1] = h / 6.0 * (p[offsets[1]] + 4.0 * f1 * f2 + p[offsets[1] + 1])
    return out / nodes


def _assert_same_check(fn, beta, tau, mode, extra_points=None):
    """Same report, and the same value of each inequality at every a of
    the check's _A_POINTS."""
    a_points = phi_builder._A_POINTS
    want, passed, growth, tail = reference_check_conditions(fn, beta, tau, mode, a_points,
                                                            extra_points)
    got = check_conditions(fn, beta, tau, mode, extra_points)
    assert got.mode == want.mode
    for g, w, p in zip(got.entries, want.entries, passed, strict=True):
        assert (g.name, g.value, g.bound, g.sense, g.passed) == \
            (w.name, w.value, w.bound, w.sense, bool(p))
    assert got.to_text() == want.to_text()
    values = phi_builder._condition_values(fn, beta, tau, mode, extra_points)
    assert np.array_equal(values[0], growth)
    assert np.array_equal(values[1], tail)


def _window(tau, t):
    return np.linspace(max(0.0, tau - t), min(1.0, tau + t), 501)


# -- check_conditions ----------------------------------------------------------


@pytest.mark.parametrize("which,mode,extra", [
    ("f", "f_form", True), ("f", "phi_form", False),
    ("phi", "phi_form", True), ("phi", "f_form", False)])
def test_check_conditions_matches_reference(coarse_solution, profile05, which, mode, extra):
    beta, tau, _, rep = coarse_solution
    fn = rep.converged_f if which == "f" else profile05.phi
    _assert_same_check(fn, beta, tau, mode, extra_points=_window(tau, 0.05) if extra else None)


@pytest.mark.parametrize("a_points", [2, 3, 37])
def test_check_conditions_matches_reference_on_few_points(op_point, monkeypatch, a_points):
    beta, tau = op_point
    x = np.linspace(tau, 1.0, 31)
    fn = GridFunction(tau, 1.0, 0.4 + 0.3 * np.sin(7.0 * x))
    monkeypatch.setattr(phi_builder, "_A_POINTS", a_points)
    for mode in ("f_form", "phi_form"):
        _assert_same_check(fn, beta, tau, mode)


def test_check_conditions_fails_non_finite_values_without_raising(profile05, op_point):
    """A profile scaled by 1e300 overflows both inequalities: each must fail.

    Python's max drops NaN, so a loop of max(sup, abs(v)) read 0.0 and passed.
    """
    beta, tau = op_point
    huge = GridFunction(0.0, 1.0, profile05.phi.values * 1e300)
    report = check_conditions(huge, beta, tau, "phi_form", extra_points=_window(tau, 0.05))
    entries = {e.name: e for e in report.entries}
    for name in ("weighted_mass_residual", "growth_bound_sup", "tail_bound_sup"):
        entry = entries[name]
        assert not np.isfinite(entry.value) and not entry.passed, name
    assert not report.all_pass
    assert "all_pass=false" in report.to_text()


# -- mollify -------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.05, 0.01, 0.003])
def test_mollify_matches_reference(coarse_solution, t):
    """0.003 puts 0.18 between neighbouring node cuts, so every gap is refined."""
    f = coarse_solution[3].converged_f
    assert np.array_equal(mollify(f, t).values, reference_mollify(f, t).values)


def test_mollify_matches_reference_on_a_coarse_grid(rng):
    x = np.linspace(0.45, 1.0, 41)
    f = GridFunction(0.45, 1.0, np.abs(rng.standard_normal(41)) + x)
    for t in (0.4, 0.1, 0.01):
        assert np.array_equal(mollify(f, t).values, reference_mollify(f, t).values)


# -- self-convolution plan ------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_selfconv_bits_do_not_depend_on_the_worker_count(coarse_solution, monkeypatch, cpus):
    """One worker per CPU the process may use; 16 CPUs give 8 workers (8 blocks).

    The interpreter switches threads every microsecond, so workers
    interleave as finely as they can.
    """
    _, _, g, rep = coarse_solution
    f = rep.converged_f
    signed = GridFunction(f.lo, f.hi, f.values - 0.5 * np.max(f.values))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        plan = SelfConvPlan(f)
        assert len(plan._chunks) == min(cpus, 8)
        got = [plan.sweep(h) for h in (f, g, signed)]
    finally:
        sys.setswitchinterval(interval)
    for h, sweep in zip((f, g, signed), got):
        assert np.array_equal(sweep, reference_selfconv(h))


def test_selfconv_on_nodes_works_outside_a_solve(coarse_solution):
    """The benchmark probe calls selfconv_on_nodes(fbar) alone; its plan lives for the call."""
    f = coarse_solution[3].converged_f
    before = set(threading.enumerate())
    assert np.array_equal(selfconv_on_nodes(f), reference_selfconv(f))
    assert set(threading.enumerate()) <= before


def test_a_worker_exception_reaches_the_caller(coarse_solution, monkeypatch):
    """An exception in a chunk that a worker thread sweeps is raised by the
    sweep, which then stores no tables and leaves no worker running."""
    f = coarse_solution[3].converged_f
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    plan = SelfConvPlan(f)
    last = plan._chunks[-1][0][0]   # the first row of the last worker's chunk
    locate = SelfConvPlan._located

    def failing(self, first, stop):
        if first == last:
            raise FloatingPointError(f"rows {first}..{stop - 1}")
        return locate(self, first, stop)

    monkeypatch.setattr(SelfConvPlan, "_located", failing)
    before = set(threading.enumerate())
    for sweep in (plan.sweep, selfconv_on_nodes):
        with pytest.raises(FloatingPointError, match=f"rows {last}\\.\\."):
            sweep(f)
        assert set(threading.enumerate()) <= before
    assert plan._tables is None


def test_solve_f_owns_its_plan_and_frees_it_on_return(op_point, monkeypatch):
    """Module-level lookups let a wrapper see each sweep; no plan outlives the
    solve, and no worker thread outlives the sweep that started it.

    Each sweep's pool is recorded through the class the sweep imports, so
    only its shutdown, not the plan's garbage collection, can have stopped
    its workers.
    """
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(501)  # 125,751 points: two blocks, so a worker thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plans, pools, sweeps = [], [], []
    selfconv, apply_T = integral_equation.selfconv_on_nodes, integral_equation.apply_T

    class Pool(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    def watch_selfconv(f, plan=None):
        plans.append(weakref.ref(plan))
        before = set(threading.enumerate())
        out = selfconv(f, plan)
        assert set(threading.enumerate()) <= before, "a worker outlived its sweep"
        return out

    def watch_apply(*args, **kwargs):
        sweeps.append(1)
        return apply_T(*args, **kwargs)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(integral_equation, "selfconv_on_nodes", watch_selfconv)
    monkeypatch.setattr(integral_equation, "apply_T", watch_apply)
    report = solve_f(g, tol=1e-9, max_iter=cli._SOLVE["max_iter"])
    # four plain sweeps, eight mixed ones, two power sweeps and the box's two
    assert len(sweeps) == report.iterations == 16
    assert len(plans) == report.iterations + 1 == 17  # the sweeps and the residual
    assert not [ref for ref in plans if ref() is not None], "a plan outlived solve_f"
    assert len(pools) == len(plans)  # each sweep started its own worker
    assert all(pool._threads for pool in pools)
    assert not [t for pool in pools for t in pool._threads if t.is_alive()]


def test_the_benchmark_tracer_names_resolve():
    """benchmarks/tracer.py wraps these attributes by name."""
    for owner, name in [(cli, "solve_f"), (integral_equation, "apply_T"),
                        (integral_equation, "selfconv_on_nodes"), (phi_builder, "mollify"),
                        (phi_builder, "check_conditions"), (cli, "build_profile")]:
        assert callable(getattr(owner, name)), name


# -- the uniform-grid evaluation kernel --------------------------------------------------


def kernel_points(nodes):
    """Every node and both its float neighbours, lo and hi, points inside the
    edge slack on either side, and a NaN last."""
    lo, hi = nodes[0], nodes[-1]
    slack = _EDGE_SLACK * (hi - lo) * np.array([1.0, 0.5, 1e-3])
    return np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                           [lo, hi], lo - slack, hi + slack, [np.nan]])


@pytest.mark.parametrize("lo", ["zero", "tau"])
@pytest.mark.parametrize("m", [3, 2001, 4001])
def test_locate_equals_the_search_of_the_interior_nodes(op_point, m, lo):
    """On [0, 1] the arithmetic floor lands one high at some nodes' lower
    neighbours (301 points at M=2001), on [tau, 1] one low at some nodes
    (703 at M=2001), so the two grids exercise one correction each."""
    lo = op_point[1] if lo == "tau" else 0.0
    nodes = GridFunction(lo, 1.0, np.zeros(m)).nodes
    x = kernel_points(nodes)
    i, s = _locate(nodes, x)
    want = np.searchsorted(nodes[1:-1], x, "right")
    assert np.array_equal(i, want) and i[-1] == m - 2
    assert np.array_equal(s, x - nodes[want], equal_nan=True)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_evaluation_in_chunks_equals_the_literal_sum(coarse_solution, rng, shift):
    """Points one short of a chunk, a whole chunk and one more, with nodes,
    their neighbours, the slack and a NaN among them, in 1-D and 2-D: every
    piece table evaluates bit for bit as the literal sum."""
    fbar = coarse_solution[3].converged_f
    x = kernel_points(fbar.nodes)
    size = grid_functions._CHUNK + shift
    x = np.concatenate([x, rng.uniform(fbar.lo, fbar.hi, size - x.size)])
    rng.shuffle(x)
    clipped = np.clip(x, fbar.lo, fbar.hi)
    for table in (fbar.pieces, fbar._derivative, fbar._antiderivative, fbar._log_antiderivative):
        want = ppoly_at(table, fbar.nodes, clipped)
        assert np.array_equal(fbar._at(table, x), want, equal_nan=True)
        assert np.array_equal(fbar._at(table, x[:-1].reshape(-1, 1 + shift % 2)),
                              want[:-1].reshape(-1, 1 + shift % 2), equal_nan=True)


@pytest.mark.parametrize("lo", ["zero", "tau"])
@pytest.mark.parametrize("m", [3, 5, 101, 2001, 4001])
def test_antiderivative_constants_equal_the_sequential_sum(op_point, rng, m, lo):
    """Each piece's constant is the previous one plus that piece's rises at
    its right end, added one at a time in PPoly's order, signed zeros included."""
    lo = op_point[1] if lo == "tau" else 0.0
    vals = rng.standard_normal(m)
    vals[rng.integers(0, m, size=m // 4)] = -0.0
    table = GridFunction(lo, 1.0, vals)._antiderivative
    rises = _terms(table[:, :-1], np.diff(np.linspace(lo, 1.0, m))[:-1])[1:]
    const = [0.0]
    for rise in zip(*(t.tolist() for t in rises)):
        const.append(reduce(operator.add, rise, const[-1]))
    assert table[-1].tobytes() == np.array(const).tobytes()


def test_nan_points_raise_no_warning(coarse_solution):
    fbar = coarse_solution[3].converged_f
    x = np.array([fbar.lo, np.nan, 0.5 * (fbar.lo + fbar.hi)])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        i, s = _locate(fbar.nodes, x)
        values = (fbar(x), fbar(np.nan), fbar.derivative(x), fbar.log_between(x, fbar.hi),
                  fbar.integral_between(fbar.lo, x))
    assert i[1] == fbar.m - 2 and np.isnan(s[1])
    assert all(np.isnan(v[1]) for v in values if np.ndim(v)) and np.isnan(values[1])


# -- oracle tables --------------------------------------------------------------------


def test_oracle_h_rows_equal_h_row(small_instance):
    st, phi = small_instance.state, small_instance.params.phi
    ls = np.arange(st.K, st.n_max + 1)
    block = np.zeros((ls.size, ls[-1] - 1))
    adversarial._h_rows(st.alpha, phi, ls, out=block)
    for l, row in zip(ls, block):
        h_row = (st.alpha[l] / l) * phi(np.arange(1, l) / l)  # h_l, one row at a time
        assert np.array_equal(row[: l - 1], h_row)
        assert not row[l - 1:].any()
