"""Monotone fixed-point solver for f(a) + a^{-1} int_tau^a f(x) f(x/a) dx = G(a).

The clamped sweep map f -> max(0, G - selfconv(f)) produces interleaved
monotone iterates: even iterates decrease, odd iterates increase, and the
solution is bracketed between them.  Positivity of the third iterate,
with the fourth iterate below the second, is the certificate that the
bracketing pair exists; plain alternation with a final even/odd average
solves the equation itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .grid_functions import GridFunction, SelfConvPlan, selfconv_on_nodes

__all__ = ["IterationReport", "apply_T", "numeric_rg", "solve_f", "residual_values"]

_MONO_SLACK = 1e-12
_MONO_FAIL = 1e-9


@dataclass
class IterationReport:
    """Outcome of solve_f."""

    iterates: list[GridFunction]
    bracket_width: float
    converged_f: GridFunction
    residual_sup: float
    f3_min: float
    iterations: int
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


def _sweeps(G: GridFunction, plan: SelfConvPlan, max_sweeps: int,
            tol: float) -> list[GridFunction]:
    """Iterates [G, T G, T^2 G, ...] of the clamped sweep map, which must interleave.

    Stops once sup|f_j - f_{j-2}| < tol for both parities (j >= 4); raises
    if that needs more than max_sweeps sweeps.
    """
    fs = [G]
    widths = [np.inf, np.inf]
    for j in range(1, max_sweeps + 1):
        fs.append(apply_T(G, fs[-1], plan=plan))
        if j >= 2:
            widths[j % 2] = float(np.max(np.abs(fs[j].values - fs[j - 2].values)))
        if j >= 4 and max(widths) < tol:
            break
    else:
        raise NumericFailure(f"bracket did not close within {max_sweeps} sweeps "
                             f"(last width {max(widths):.3e})")
    for j in range(2, len(fs)):
        diff = fs[j].values - fs[j - 2].values
        worst = float(np.max(diff)) if j % 2 == 0 else -float(np.min(diff))
        if worst > _MONO_FAIL:
            raise NumericFailure(f"grid too coarse: monotone interleaving violated "
                                 f"by {worst:.3e} at iterate {j}")
    return fs


def solve_f(G: GridFunction, *, tol: float, max_iter: int) -> IterationReport:
    """Alternate the clamped sweep until the even/odd bracket closes.

    G is the right side sampled on [tau, 1]; its grid's left endpoint is tau.
    Stops once sup|f_{j+2} - f_j| < tol for both parities; the solution is
    the average of the final even and odd iterates.  Raises when the
    contraction constant is >= 1 or the bracket fails to close within
    max_iter sweeps (the message gives the last bracket width); max_iter
    must be at least 4, since the certificate reads the fourth iterate.

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
    fs = _sweeps(G, plan, max_iter, tol)
    even, odd = fs[-1], fs[-2]
    if len(fs) % 2 == 0:  # fs[-1] is an odd iterate
        even, odd = fs[-2], fs[-1]
    fbar = GridFunction(G.lo, G.hi, 0.5 * (even.values + odd.values))
    res = residual_values(G, fbar, plan)
    width = float(np.max(np.abs(even.values - odd.values)))
    f3_min = float(np.min(fs[3].values))
    certified = f3_min > 0.0 and float(np.max(fs[4].values - fs[2].values)) <= _MONO_SLACK

    # Sanity on the derivative bound of the fixed-point argument: the
    # solution's slope must stay below K/(1 - R_G) for a K driven by G.
    dnodes = fbar.derivative(fbar.nodes)
    g_slope = float(np.max(np.abs(G.derivative(G.nodes))))
    g_sup = float(np.max(np.abs(G.values)))
    kconst = g_slope + 3.0 * g_sup * g_sup / G.lo
    return IterationReport(
        iterates=fs, bracket_width=width, converged_f=fbar,
        residual_sup=float(np.max(np.abs(res))), f3_min=f3_min,
        iterations=len(fs) - 1, rg=rg, bracket_certified=certified,
        deriv_sup=float(np.max(np.abs(dnodes))),
        deriv_bound=kconst / (1.0 - rg))


def residual_on_refined(G: GridFunction, f: GridFunction) -> float:
    """Residual sup re-measured on the twice-refined grid (quadrature independence)."""
    return float(np.max(np.abs(residual_values(G.refined(2), f.refined(2)))))
