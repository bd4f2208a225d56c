"""Fixed-point solver for f(a) + a^{-1} int_tau^a f(x) f(x/a) dx = G(a).

The clamped sweep map T f = max(0, G - S f), S the scaled
self-convolution, is antitone, so its iterates from f0 = G interleave.
Positivity of the third iterate, with the fourth below the second, is the
certificate that a bracketing pair exists.  After those four sweeps,
Anderson mixing of the sweeps drives sup|T f - f| below the tolerance.
A box [lo, hi] around the result, weighted along the slowest mode of the
linearized map, then encloses the grid solution: T antitone, lo <= hi,
T(hi) >= lo and T(lo) <= hi mean that T maps the box into itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .grid_functions import GridFunction, SelfConvPlan, selfconv_on_nodes

__all__ = ["IterationReport", "apply_T", "check_box", "numeric_rg", "solve_f",
           "residual_values"]

_MONO_SLACK = 1e-12
_DEPTH = 5            # Anderson mixes the differences of the last six sweeps
_DROP = 1e-10         # a difference keeping less of its norm ends the mixing basis
_POWER_SWEEPS = 2     # sweeps of the linearized map that shape the box
_SECANT = 2.0 ** -20  # step of the linearized sweep along a weight of peak 1
_W_FLOOR = 2.0 ** -6  # least box weight: at a = tau the map's gain is 0
_BOX_SAFETY = 2.0     # the box's half-width over its linear estimate
_ROUNDING_OPS = 16    # operations of a sweep point beyond its row's sum


@dataclass
class IterationReport:
    """Outcome of solve_f."""

    iterates: list[GridFunction]   # G and its first four sweeps
    box_lo: np.ndarray
    box_hi: np.ndarray
    box_half_width: float
    converged_f: GridFunction
    residual_sup: float
    f3_min: float
    iterations: int                # sweeps of T in all
    rg: float
    bracket_certified: bool
    deriv_sup: float
    deriv_bound: float


def apply_T(G: GridFunction, f: GridFunction, *,
            plan: SelfConvPlan | None = None) -> GridFunction:
    """One sweep: a |-> G(a) - a^{-1} int_tau^a f(x) f(x/a) dx, clamped at 0.

    G and f must share the grid, whose left endpoint is tau; plan is a
    self-convolution plan for that grid (without one, no tables are kept).
    """
    if (G.m != f.m) or abs(G.lo - f.lo) > 1e-14 or abs(G.hi - f.hi) > 1e-14:
        raise ValueError("G and f must share one grid")
    if float(np.min(f.values)) < -1e-12:
        raise ValueError("f must be non-negative")
    return GridFunction(G.lo, G.hi, np.maximum(G.values - selfconv_on_nodes(f, plan), 0.0))


def numeric_rg(G: GridFunction) -> float:
    """sup_a a^{-1} int_{tau/a}^1 G(u) du, the sweep-map contraction constant."""
    nodes = G.nodes
    tails = G.integral_between(np.clip(G.lo / nodes, G.lo, G.hi), G.hi)
    return float(np.max(tails / nodes))


def residual_values(G: GridFunction, f: GridFunction,
                    plan: SelfConvPlan | None = None) -> np.ndarray:
    """Pointwise defect f + selfconv(f) - G on the shared grid."""
    return f.values + selfconv_on_nodes(f, plan) - G.values


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v as a NumPy reduction, not a BLAS call: no bit depends on the BLAS threads."""
    return float(np.add.reduce(u * v))


def _anderson(xs: list, ts: list) -> np.ndarray:
    """The next iterate of Anderson mixing on the sweeps ts[j] = T(xs[j]), clamped at 0.

    With residuals g_j = t_j - x_j, it takes the gamma that minimizes
    |g_k - sum_j gamma_j (g_j - g_{j-1})| and returns t_k - sum_j gamma_j
    (t_j - t_{j-1}).  Modified Gram-Schmidt orthogonalizes the differences
    newest first; one that keeps no more than _DROP of its norm ends the
    basis, so the older ones are dropped.
    """
    gs = [t - x for x, t in zip(xs, ts)]
    qs, cols, dts = [], [], []
    for j in range(len(gs) - 1, 0, -1):
        v = gs[j] - gs[j - 1]
        norm = math.sqrt(_dot(v, v))
        col = []
        for q in qs:
            col.append(_dot(q, v))
            v -= col[-1] * q
        col.append(math.sqrt(_dot(v, v)))
        if not col[-1] > _DROP * norm:
            break
        qs.append(v / col[-1])
        cols.append(col)
        dts.append(ts[j] - ts[j - 1])
    rhs = [_dot(q, gs[-1]) for q in qs]
    gamma = [0.0] * len(qs)
    for i in range(len(qs) - 1, -1, -1):  # back substitution, R[i][j] = cols[j][i]
        gamma[i] = (rhs[i] - sum(cols[j][i] * gamma[j]
                                 for j in range(i + 1, len(qs)))) / cols[i][i]
    x = ts[-1].copy()
    for c, dt in zip(gamma, dts):
        x -= c * dt
    return np.maximum(x, 0.0)


def sweep_rounding(G: GridFunction, t: np.ndarray) -> np.ndarray:
    """Allowance for the rounding of a computed sweep t = T(f), node by node.

    Row i of a sweep sums i + 1 points, each a cubic times a value, then
    end-corrects, scales and subtracts from G: about i + 1 + _ROUNDING_OPS
    operations in a row.  The allowance is n eps = 2 n u, twice Higham's
    gamma_n, of the sweep's magnitude |G| + |G - t|, which is |G| + |S f|
    wherever the sweep is not clamped.
    """
    n = np.arange(1, G.m + 1) + _ROUNDING_OPS
    return n * np.finfo(np.float64).eps * (np.abs(G.values) + np.abs(G.values - t))


def check_box(G: GridFunction, lo: np.ndarray, hi: np.ndarray,
              plan: SelfConvPlan | None = None) -> None:
    """Raises NumericFailure unless T maps the box [lo, hi] into itself.

    T is antitone, so lo <= hi, T(hi) >= lo and T(lo) <= hi put T(f) in the
    box for every f in it, and the grid solution lies in the box.  Each
    computed sweep is held to its rounding allowance, and T(hi) <= T(lo)
    checks that T is antitone across the box.  Since T >= 0, a node with
    lo = 0 passes the lower side.
    """
    empty = np.flatnonzero(~(lo <= hi))
    if empty.size:
        raise NumericFailure(f"box is empty: lo > hi at node {int(empty[0])}")
    t_hi = apply_T(G, GridFunction(G.lo, G.hi, hi), plan=plan).values
    t_lo = apply_T(G, GridFunction(G.lo, G.hi, lo), plan=plan).values
    e_hi, e_lo = sweep_rounding(G, t_hi), sweep_rounding(G, t_lo)
    for side, gap in (("T(hi) >= lo", np.maximum(t_hi - e_hi, 0.0) - lo),
                      ("T(lo) <= hi", hi - (t_lo + e_lo)),
                      ("T(hi) <= T(lo) (grid too coarse for an antitone T)",
                       t_lo + e_lo + e_hi - t_hi)):
        i = int(np.argmin(gap))
        if not gap[i] >= 0.0:
            raise NumericFailure(f"box check {side} fails at node {i} by {-gap[i]:.3e}")


def _unit(v: np.ndarray) -> np.ndarray:
    """v over its peak, raised to _W_FLOOR; all ones when v has no positive entry."""
    peak = float(np.max(v))
    return np.maximum(v / peak, _W_FLOOR) if peak > 0.0 else np.ones_like(v)


def solve_f(G: GridFunction, *, tol: float, max_iter: int) -> IterationReport:
    """Solve f = T f by four plain sweeps, Anderson mixing and a checked box.

    G is the right side sampled on [tau, 1]; its grid's left endpoint is tau.
    The iteration stops once sup|T f - f| < tol and returns that f, which
    the box [lo, hi] encloses with the grid solution.  Raises when the
    contraction constant is >= 1, when the iteration takes more than
    max_iter sweeps (the message gives the last sup|T f - f|), or when the
    box check fails.  max_iter must be at least 4, since the certificate
    reads the fourth iterate; the box adds _POWER_SWEEPS + 2 sweeps.

    The bracket is certified when min f3 > 0 and f4 <= f2 + _MONO_SLACK.
    Then f3 = G - S f2 exactly, and since f4 = max(0, G - S f3) and
    f2 >= 0, f4 <= f2 + slack holds exactly when G - S f3 <= f2 + slack:
    the pair (f3, f2) satisfies both bracket inequalities (DECISIONS.md).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 4:
        raise ValueError("max_iter must be at least 4: the bracket certificate "
                         "reads the fourth iterate")
    rg = numeric_rg(G)
    if rg >= 1.0:
        raise NumericFailure(f"contraction hypothesis violated: R_G = {rg:.6f} >= 1")
    plan = SelfConvPlan(G)  # the solve's sweeps share one plan and its tables

    def sweep(v: np.ndarray) -> np.ndarray:
        return apply_T(G, GridFunction(G.lo, G.hi, v), plan=plan).values

    xs = [G.values]
    for _ in range(4):
        xs.append(sweep(xs[-1]))
    fs = [GridFunction(G.lo, G.hi, v) for v in xs]
    xs, ts, sweeps = xs[:-1], xs[1:], 4
    while (res := float(np.max(np.abs(ts[-1] - xs[-1])))) >= tol:
        if sweeps >= max_iter:
            raise NumericFailure(f"Anderson mixing did not reach sup|Tf - f| < tol within "
                                 f"{max_iter} sweeps (last {res:.3e})")
        xs = [*xs[-_DEPTH:], _anderson(xs[-_DEPTH - 1:], ts[-_DEPTH - 1:])]
        ts = [*ts[-_DEPTH:], sweep(xs[-1])]
        sweeps += 1
    x, t = xs[-1], ts[-1]

    # the box's weight w: power sweeps of the linearized map, by secants from
    # x, starting from the last plain step, which the slowest mode dominates
    w, rate = _unit(np.abs(fs[4].values - fs[3].values)), 0.0
    for _ in range(_POWER_SWEEPS):
        d = (t - sweep(x + _SECANT * w)) / _SECANT
        rate, w = float(np.max(d / w)), _unit(d)
    if not rate < 1.0:
        raise NumericFailure(f"the linearized sweep does not contract (rate {rate:.6f})")
    half = _BOX_SAFETY * float(np.max((np.abs(t - x) + sweep_rounding(G, t)) / w)) / (1.0 - rate)
    lo, hi = np.maximum(x - half * w, 0.0), x + half * w
    check_box(G, lo, hi, plan)
    sweeps += _POWER_SWEEPS + 2

    fbar = GridFunction(G.lo, G.hi, x)
    res = residual_values(G, fbar, plan)
    f3_min = float(np.min(fs[3].values))
    certified = f3_min > 0.0 and float(np.max(fs[4].values - fs[2].values)) <= _MONO_SLACK

    # Sanity on the derivative bound of the fixed-point argument: the
    # solution's slope must stay below K/(1 - R_G) for a K driven by G.
    dnodes = fbar.derivative(fbar.nodes)
    g_slope = float(np.max(np.abs(G.derivative(G.nodes))))
    g_sup = float(np.max(np.abs(G.values)))
    kconst = g_slope + 3.0 * g_sup * g_sup / G.lo
    return IterationReport(
        iterates=fs, box_lo=lo, box_hi=hi, box_half_width=half, converged_f=fbar,
        residual_sup=float(np.max(np.abs(res))), f3_min=f3_min,
        iterations=sweeps, rg=rg, bracket_certified=certified,
        deriv_sup=float(np.max(np.abs(dnodes))),
        deriv_bound=kconst / (1.0 - rg))


def residual_on_refined(G: GridFunction, f: GridFunction) -> float:
    """Residual sup re-measured on the twice-refined grid (quadrature independence)."""
    return float(np.max(np.abs(residual_values(G.refined(2), f.refined(2)))))
