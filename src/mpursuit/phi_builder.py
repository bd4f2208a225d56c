"""Mollify the solved profile into a smooth weight and certify its conditions.

The integral-equation solution f lives on [tau, 1] and jumps at tau once
extended by zero.  Convolving with a scaled bump kernel produces the
smooth weight phi on [0, 1]; a one-parameter rescaling then restores the
weighted-mass identity exactly.  The certification evaluates the two sup
inequalities that the worst-case construction requires, both for phi and
for the raw f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import Condition, all_hold
from .errors import NumericFailure
from .grid_functions import _EDGE_SLACK, GridFunction, _corrected_trapezoid, _simpson

__all__ = ["PhiProfile", "ConditionReport", "bump_kernel",
           "mollify", "scale_root", "normalize", "weighted_mass",
           "check_conditions", "build_profile"]

# integral of exp(-1/(1-u^2)) over (-1, 1); normalizes the bump to unit mass
BUMP_MASS = 0.44399381616807944

_GL_PIECE_NODES, _GL_PIECE_WEIGHTS = np.polynomial.legendre.leggauss(12)
_MOLLIFY_CUTS = 4096  # cuts per run of output nodes that mollify evaluates at once
_A_BLOCK = 32         # a values evaluated together by check_conditions
_A_POINTS = 2000      # evenly spaced a values every check_conditions evaluates
_T_MIN = 1e-4         # narrowest mollification width build_profile tries


def bump_kernel(u):
    """Unit-mass smooth bump supported on (-1, 1)."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2)) / BUMP_MASS
    return out


def _extended(f: GridFunction, z: np.ndarray) -> np.ndarray:
    """f at the points z under the construction's extension rules.

    Zero below tau = f.lo, f(1) held above f.hi, each beyond the grid's
    edge slack; points inside the slack are clipped onto the grid.
    """
    slack = _EDGE_SLACK * (f.hi - f.lo)
    out = f(np.clip(z, f.lo, f.hi))
    out[z < f.lo - slack] = 0.0
    out[z > f.hi + slack] = f.values[-1]
    return out


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def mollify(f: GridFunction, t: float) -> GridFunction:
    """Convolve the extended f with the width-t bump; result lives on [0, 1].

    f, given on [tau, 1], is extended by zero below tau and by f(1) above
    1.  The convolution is integrated piecewise: the u-range is cut at the
    kernel preimages of the jump at tau, the kink at 1, and every grid
    node of f (the interpolant is only C^1 across nodes, which would
    otherwise cap Gauss-Legendre accuracy), with a 12-point rule on each
    polynomial-times-kernel piece.  The result has f's node count.
    """
    tau = f.lo
    if not 0.0 < t < tau:
        raise ValueError("mollification width must satisfy 0 < t < tau")
    xs = np.linspace(0.0, 1.0, f.m)
    # f(x - t u) vanishes for u above (x - tau)/t
    u_hi = np.minimum(1.0, (xs - tau) / t)
    live = np.flatnonzero(u_hi > -1.0)
    x, u_hi = xs[live], u_hi[live]
    # the grid nodes z in (x - t u_hi, x + t) give the cuts (x - z)/t
    j0 = np.searchsorted(f.nodes, x - t * u_hi, side="right")
    near = np.maximum(np.searchsorted(f.nodes, x + t, side="left") - j0, 0)
    # runs of whole output nodes with about _MOLLIFY_CUTS cuts each
    ends = np.cumsum(near + 1)
    edges = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _MOLLIFY_CUTS),
                                      side="right"))
    out = np.zeros(f.m)
    for a, b in zip(edges, [*edges[1:], live.size]):
        out[live[a:b]] = _mollified(f, t, x[a:b], u_hi[a:b], j0[a:b], near[a:b])
    return GridFunction(0.0, 1.0, out)


def _mollified(f: GridFunction, t: float, x: np.ndarray, u_hi: np.ndarray,
               j0: np.ndarray, near: np.ndarray) -> np.ndarray:
    """The mollified f at the points x, one dot product per point.

    Point i's cuts are -1, the kink (x - 1)/t where the hold extension
    starts and the grid-node cuts (x - f.nodes[j0 + r])/t, r < near[i],
    that fall in (-1, u_hi), and u_hi; all points' cuts sit in one flat
    array ordered by point.
    """
    point = np.arange(x.size)
    by_node = np.repeat(point, near)
    owner = np.concatenate([point, by_node])
    inner = np.concatenate([(x - 1.0) / t,
                            (x[by_node] - f.nodes[j0[by_node] + _ranks(near)]) / t])
    keep = (-1.0 < inner) & (inner < u_hi[owner])
    owner = np.concatenate([point, owner[keep], point])
    rank = np.repeat([0, 1, 2], [x.size, int(keep.sum()), x.size])
    cuts = np.concatenate([np.full(x.size, -1.0), inner[keep], u_hi])
    order = np.lexsort((cuts, rank, owner))
    owner, cuts = owner[order], cuts[order]
    # cap the piece width: the 12-point rule needs short panels for the
    # kernel's flat ends.  A gap of width w > 0.05 from cut c is split at
    # c + w k / parts, k = 1 .. parts - 1.
    right = np.flatnonzero(owner[1:] == owner[:-1]) + 1   # right cut of each gap
    w = cuts[right] - cuts[right - 1]
    parts = np.where(w > 0.05, np.ceil(w / 0.05), 1.0).astype(np.intp)
    k = _ranks(parts) + 1
    gap = np.repeat(np.arange(right.size), parts)
    hi = cuts[right[gap]]
    split = k < parts[gap]
    hi[split] = cuts[right[gap[split]] - 1] + w[gap[split]] * k[split] / parts[gap[split]]
    lo = np.roll(hi, 1)
    first = k == 1
    lo[first] = cuts[right[gap[first]] - 1]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    uu = (mid[:, None] + half[:, None] * _GL_PIECE_NODES).ravel()
    ww = (half[:, None] * _GL_PIECE_WEIGHTS).ravel()
    piece_owner = owner[right[gap]]
    weighted = ww * bump_kernel(uu)
    values = _extended(f, np.repeat(x[piece_owner], _GL_PIECE_NODES.size) - t * uu)
    bounds = np.searchsorted(piece_owner, np.arange(x.size + 1)) * _GL_PIECE_NODES.size
    return np.array([weighted[i:j] @ values[i:j] for i, j in zip(bounds[:-1], bounds[1:])])


def weighted_mass(fn: GridFunction) -> float:
    """integral fn(x) (1 + integral_x^1 fn(z) dz/z) dx over fn's interval."""
    tails = fn.log_between(fn.nodes, fn.hi)
    return float(_simpson(fn.values * (1.0 + tails), fn.h))


def scale_root(b_mass: float, c_mass: float, target: float) -> float:
    """Positive root of c_mass x^2 + b_mass x = target (linear when c = 0).

    Rationalized form: stable as c_mass -> 0.
    """
    if b_mass <= 0.0 and c_mass <= 0.0:
        raise NumericFailure("degenerate profile: zero mass")
    disc = np.sqrt(b_mass * b_mass + 4.0 * target * c_mass)
    return float(2.0 * target / (b_mass + disc))


def normalize(phi_bar: GridFunction, beta: float):
    """Scale phi_bar so the weighted-mass identity holds exactly.

    With B the plain mass and C the weighted pair mass, the scale C_t is
    the positive root of C x^2 + B x = beta/(1-2 beta).  Returns
    (C_t, phi).
    """
    if float(np.min(phi_bar.values)) < 0.0:
        raise ValueError("profile must be non-negative")
    nodes = phi_bar.nodes
    b_mass = phi_bar.integrate()
    tails = phi_bar.log_between(nodes, phi_bar.hi)
    c_mass = GridFunction(phi_bar.lo, phi_bar.hi, phi_bar.values * tails).integrate()
    target = beta / (1.0 - 2.0 * beta)
    c_t = scale_root(b_mass, c_mass, target)
    phi = GridFunction(phi_bar.lo, phi_bar.hi, c_t * phi_bar.values)
    resid = abs(weighted_mass(phi) - target)
    if resid > 1e-8:
        raise NumericFailure(f"normalization failed: mass identity residual {resid:.3e}")
    return float(c_t), phi


@dataclass(frozen=True)
class ConditionReport:
    mode: str
    entries: tuple[Condition, ...]

    @property
    def all_pass(self) -> bool:
        return all_hold(self.entries)

    def to_text(self) -> str:
        lines = [f"mode={self.mode}"]
        for e in self.entries:
            lines += e.lines()
        lines.append(f"all_pass={'true' if self.all_pass else 'false'}")
        return "\n".join(lines) + "\n"


def check_conditions(fn: GridFunction, beta: float, tau: float, mode: str,
                     extra_points=None) -> ConditionReport:
    """Evaluate the construction's integral (in)equalities for fn.

    mode "phi_form": fn is the smooth weight on [0, 1]; the two sup
    inequalities of the selection analysis are evaluated over a in [0, 1].
    mode "f_form": fn is the raw profile on [tau, 1]; the boundary term
    fn(tau) tau (1 + tail) joins the first inequality, and the
    weighted-mass identity is reported as well.  Never raises: the report
    carries a pass flag per condition, and a non-finite value fails its
    condition.
    """
    if mode not in ("phi_form", "f_form"):
        raise ValueError("mode must be phi_form or f_form")
    with np.errstate(all="ignore"):  # a non-finite value propagates and fails below
        growth, tail = _condition_values(fn, beta, tau, mode, extra_points)
        sup1 = float(np.max(np.abs(growth), initial=0.0))
        sup2 = float(np.max(np.abs(tail), initial=0.0))
        target = beta / (1.0 - 2.0 * beta)
        resid = abs(weighted_mass(fn) - target)
    mass_tol = 1e-6 if mode == "f_form" else 1e-8
    return ConditionReport(mode=mode, entries=(
        Condition("weighted_mass_residual", resid, mass_tol, "<="),
        Condition("growth_bound_sup", sup1, 1.0, "<"),
        Condition("tail_bound_sup", sup2, 1.0, "<"),
    ))


def _condition_values(fn: GridFunction, beta: float, tau: float, mode: str,
                      extra_points) -> tuple[np.ndarray, np.ndarray]:
    """The two inequalities' expressions at each a of the check, ascending.

    The a values are evaluated in blocks of _A_BLOCK.
    """
    nodes = fn.nodes
    vals = fn.values
    dvals = fn.derivative(nodes)
    tails = fn.log_between(nodes, fn.hi)  # integral_x^1 fn/z dz at nodes

    a_lo = tau if mode == "f_form" else 0.0
    a_grid = [np.linspace(a_lo, 1.0, _A_POINTS)]
    b1 = tau * ((1.0 - beta) / (1.0 - 2.0 * beta)) ** (1.0 / beta)
    for cand in (b1, tau, 1.0):
        if a_lo <= cand <= 1.0:
            a_grid.append(np.array([cand]))
    if extra_points is not None:
        pts = np.asarray(extra_points, dtype=np.float64)
        a_grid.append(pts[(pts >= a_lo) & (pts <= 1.0)])
    a_all = np.unique(np.concatenate(a_grid))

    # first inequality: prefix integral of core = fn'(x) x - (beta-1) fn(x)
    # paired with the rescaled tail 1 + integral_{x/a}^1 fn/z; second:
    # full-grid pairing of base with integral_{a x}^x fn/z plus the log tail
    # from a
    core = dvals * nodes - (beta - 1.0) * vals
    base = (beta - 1.0) * (1.0 + tails) + vals
    blocks = [a_all[k:k + _A_BLOCK] for k in range(0, a_all.size, _A_BLOCK)]
    return (np.concatenate([_growth_values(fn, core, a, beta, tau, mode) for a in blocks]),
            np.concatenate([_tail_values(fn, base, a) for a in blocks]))


def _growth_values(fn: GridFunction, core: np.ndarray, a: np.ndarray, beta: float,
                   tau: float, mode: str) -> np.ndarray:
    """The first inequality's expression at each a (sorted ascending).

    Below the support it collapses to tau fn(tau) in f_form and is 0 in
    phi_form.  Above it, the prefix of core times the rescaled tail up to
    the last node j below a takes the end-corrected trapezoid, plus a
    sub-grid trapezoid tail panel to a.
    """
    lo, h, nodes, vals = fn.lo, fn.h, fn.nodes, fn.values
    out = np.full(a.size, vals[0] * tau if mode == "f_form" else 0.0)
    live = a > lo + 1e-15
    a = a[live]
    if not a.size:
        return out
    j = np.minimum(np.floor((a - lo) / h + 1e-12).astype(np.intp), fn.m - 1)
    width = int(j.max()) + 1
    inner = 1.0 + fn.log_between(np.minimum(nodes[:width] / a[:, None], fn.hi), fn.hi)
    g = core[:width] * inner  # row r is valid up to column j[r]
    # numpy sums pairwise in an order set by the length, so each ragged row
    # takes its own sum
    total = np.array([_corrected_trapezoid(gr[:n], h) for gr, n in zip(g, j + 1)])
    tail_val = fn.derivative(a) * a - (beta - 1.0) * fn(a)
    rem = a - nodes[j]
    g_j = g[np.arange(a.size), j]
    v = np.where(rem > 1e-13, total + rem * 0.5 * (g_j + tail_val), total)
    if mode == "f_form":
        v = v + vals[0] * tau * (1.0 + fn.log_between(np.minimum(tau / a, fn.hi), fn.hi))
    out[live] = v
    return out


def _tail_values(fn: GridFunction, base: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The second inequality's expression at each a.

    Clipping the lower limit a x at lo realizes the zero extension below
    the support.
    """
    lo, hi, nodes = fn.lo, fn.hi, fn.nodes
    between = fn.log_between(np.clip(a[:, None] * nodes, lo, hi), nodes)
    return _simpson(base * between, fn.h) + fn.log_between(np.clip(a, lo, hi), hi)


@dataclass(frozen=True)
class PhiProfile:
    """Smooth non-negative weight on [0, 1] driving the correction vectors."""

    phi: GridFunction
    t: float
    c_t: float
    beta: float
    tau: float

    def __call__(self, x):
        return self.phi(x)

    @property
    def delta(self) -> float:
        """tau - 2t: the width-t mollification phi is zero below it."""
        return self.tau - 2.0 * self.t

    @cached_property
    def support_lo(self) -> float:
        """Left edge of phi's support: the left node of the first piece of
        phi's piece table with a nonzero coefficient, phi's upper end when
        there is none.  Every piece below it is zero, so phi is +0.0 there."""
        live = np.flatnonzero(self.phi.pieces.any(axis=0))
        return float(self.phi.nodes[live[0]]) if live.size else self.phi.hi

    def first_live(self, n: int) -> int:
        """An index i0 >= 1 with phi(i / n) = +0.0 for every 1 <= i < i0.

        One below the floor of support_lo * n, so the rounding of that
        product or of i / n cannot put a point of the support below i0.
        """
        return max(1, int(self.support_lo * n) - 1)


def build_profile(f: GridFunction, beta: float, *, t: float):
    """Mollify, normalize and certify from width t; halve t until certification passes.

    f is the solved profile on [tau, 1], so tau is f.lo; beta is the
    exponent phi is normalized for.  Returns (PhiProfile, ConditionReport).
    Raises once t drops below _T_MIN without a passing certificate.
    """
    tau = f.lo
    t_cur = t
    while True:
        phi_bar = mollify(f, t_cur)
        c_t, phi = normalize(phi_bar, beta)
        window = np.linspace(max(0.0, tau - t_cur), min(1.0, tau + t_cur), 501)
        report = check_conditions(phi, beta, tau, "phi_form", extra_points=window)
        if report.all_pass:
            profile = PhiProfile(phi=phi, t=t_cur, c_t=c_t, beta=beta, tau=tau)
            return profile, report
        if t_cur / 2.0 < _T_MIN:
            raise NumericFailure(
                f"no mollification width in the fallback schedule certifies the "
                f"profile (stopped at t={t_cur:g})")
        t_cur /= 2.0
