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

import numpy as np

from .errors import NumericFailure
from .grid_functions import _EDGE_SLACK, GridFunction, _corrected_trapezoid

__all__ = ["PhiProfile", "ConditionEntry", "ConditionReport", "bump_kernel",
           "mollify", "scale_root", "normalize", "weighted_mass",
           "check_conditions", "build_profile"]

# integral of exp(-1/(1-u^2)) over (-1, 1); normalizes the bump to unit mass
BUMP_MASS = 0.44399381616807944

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
_GL_PIECE_NODES, _GL_PIECE_WEIGHTS = np.polynomial.legendre.leggauss(12)


def bump_kernel(u):
    """Unit-mass smooth bump supported on (-1, 1)."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2)) / BUMP_MASS
    return out


def kernel_mass() -> float:
    """Quadrature mass of the bump kernel (should be 1); scaling keeps it."""
    return float(_GL_WEIGHTS @ bump_kernel(_GL_NODES))


def _extended(f: GridFunction, z: np.ndarray) -> np.ndarray:
    """f at the points z under the construction's extension rules.

    Zero below tau = f.lo, f(1) held above f.hi, each beyond the grid's
    edge slack; points inside the slack are clipped onto the grid.
    """
    slack = _EDGE_SLACK * (f.hi - f.lo)
    out = f.interpolant(np.clip(z, f.lo, f.hi))
    out[z < f.lo - slack] = 0.0
    out[z > f.hi + slack] = f.values[-1]
    return out


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
    out = np.zeros(f.m)
    f_nodes = f.nodes
    for i, x in enumerate(xs):
        # f(x - t u) vanishes for u above (x - tau)/t
        u_hi = min(1.0, (x - tau) / t)
        if u_hi <= -1.0:
            continue
        inner = [(x - 1.0) / t]  # slope kink where the hold extension starts
        z_lo, z_hi = x - t * u_hi, x + t
        j0 = int(np.searchsorted(f_nodes, z_lo, side="right"))
        j1 = int(np.searchsorted(f_nodes, z_hi, side="left"))
        inner.extend((x - f_nodes[j0:j1]) / t)
        cuts = np.concatenate([[-1.0],
                               np.sort([u for u in inner if -1.0 < u < u_hi]),
                               [u_hi]])
        # cap the piece width: the 12-point rule needs short panels for the
        # kernel's flat ends
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


def weighted_mass(fn: GridFunction) -> float:
    """integral fn(x) (1 + integral_x^1 fn(z) dz/z) dx over fn's interval."""
    nodes = fn.nodes
    tails = fn.log_between(nodes, fn.hi)
    prod = GridFunction(fn.lo, fn.hi, fn.values * (1.0 + tails))
    return prod.integrate()


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
class ConditionEntry:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    mode: str
    entries: tuple[ConditionEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> ConditionEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"mode={self.mode}"]
        for e in self.entries:
            lines.append(f"{e.name}.value={e.value:.12g}")
            lines.append(f"{e.name}.bound={e.bound:.12g}")
            lines.append(f"{e.name}.pass={'true' if e.passed else 'false'}")
        lines.append(f"all_pass={'true' if self.all_pass else 'false'}")
        return "\n".join(lines) + "\n"


def _prefix_integral(g_prefix: np.ndarray, h: float, rem: float,
                     tail_val: float) -> float:
    """Grid-prefix quadrature plus a sub-grid trapezoid tail panel."""
    total = _corrected_trapezoid(g_prefix, h)
    if rem > 1e-13:
        total += rem * 0.5 * (g_prefix[-1] + tail_val)
    return total


def check_conditions(fn: GridFunction, beta: float, tau: float, mode: str,
                     a_points: int = 2000, extra_points=None) -> ConditionReport:
    """Evaluate the construction's integral (in)equalities for fn.

    mode "phi_form": fn is the smooth weight on [0, 1]; the two sup
    inequalities of the selection analysis are evaluated over a in [0, 1].
    mode "f_form": fn is the raw profile on [tau, 1]; the boundary term
    fn(tau) tau (1 + tail) joins the first inequality, and the
    weighted-mass identity is reported as well.  Never raises: the report
    carries a pass flag per condition.
    """
    if mode not in ("phi_form", "f_form"):
        raise ValueError("mode must be phi_form or f_form")
    lo = fn.lo
    nodes = fn.nodes
    h = fn.h
    vals = fn.values
    dvals = fn.derivative(nodes)
    tails = fn.log_between(nodes, fn.hi)  # integral_x^1 fn/z dz at nodes

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

    # first inequality: prefix integral of (fn'(x) x - (beta-1) fn(x)) paired
    # with the rescaled tail 1 + integral_{x/a}^1 fn/z
    core = dvals * nodes - (beta - 1.0) * vals
    sup1 = 0.0
    for a in a_all:
        if a <= lo + 1e-15:
            if mode == "f_form":
                # at a = tau the whole expression collapses to tau * fn(tau)
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
        sup1 = max(sup1, abs(v))

    # second inequality: full-grid pairing with integral_{a x}^x fn/z plus the
    # log tail from a; clipping the lower limit at lo realizes the zero
    # extension below the support
    base = (beta - 1.0) * (1.0 + tails) + vals
    sup2 = 0.0
    for a in a_all:
        between = fn.log_between(np.clip(a * nodes, lo, fn.hi), nodes)
        v = GridFunction(lo, fn.hi, base * between).integrate()
        v += float(fn.log_between(np.clip(a, lo, fn.hi), fn.hi))
        sup2 = max(sup2, abs(v))

    target = beta / (1.0 - 2.0 * beta)
    resid = abs(weighted_mass(fn) - target)
    mass_tol = 1e-6 if mode == "f_form" else 1e-8
    entries = [
        ConditionEntry("weighted_mass_residual", resid, mass_tol, resid <= mass_tol),
        ConditionEntry("growth_bound_sup", sup1, 1.0, sup1 < 1.0),
        ConditionEntry("tail_bound_sup", sup2, 1.0, sup2 < 1.0),
    ]
    return ConditionReport(mode=mode, entries=tuple(entries))


@dataclass(frozen=True)
class PhiProfile:
    """Smooth non-negative weight on [0, 1] driving the correction vectors."""

    phi: GridFunction
    t: float
    c_t: float
    delta: float
    beta: float
    tau: float

    def __call__(self, x):
        return self.phi(x)


def build_profile(f: GridFunction, beta: float, tau: float, t: float = 0.01,
                  t_min: float = 1e-4):
    """Mollify, normalize and certify; halve t until certification passes.

    Returns (PhiProfile, ConditionReport).  Raises once t drops below
    t_min without a passing certificate.
    """
    t_cur = t
    while True:
        phi_bar = mollify(f, t_cur)
        c_t, phi = normalize(phi_bar, beta)
        window = np.linspace(max(0.0, tau - t_cur), min(1.0, tau + t_cur), 501)
        report = check_conditions(phi, beta, tau, "phi_form", extra_points=window)
        if report.all_pass:
            profile = PhiProfile(phi=phi, t=t_cur, c_t=c_t,
                                 delta=tau - 2.0 * t_cur, beta=beta, tau=tau)
            return profile, report
        if t_cur / 2.0 < t_min:
            raise NumericFailure(
                f"no mollification width in the fallback schedule certifies the "
                f"profile (stopped at t={t_cur:g})")
        t_cur /= 2.0
