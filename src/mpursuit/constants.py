"""Rate constants and the closed-form quantities of the profile construction.

Solves the nonlinear rate equation for gamma (hence the decay exponent
alpha = gamma / (2 (2 + gamma)) and beta = 1/2 - alpha), locates the
critical beta* where the construction condition turns into an equality,
and evaluates the closed forms c, F, G, R_G together with every parameter
inequality the profile construction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericFailure
from .grid_functions import GridFunction

__all__ = [
    "RateConstants",
    "ConditionMargin",
    "ClosedFormBundle",
    "gamma_equation",
    "solve_gamma",
    "beta_condition_lhs",
    "solve_beta_star",
    "tau_star",
    "bundle",
    "operating_point",
]

_RG_SCAN_POINTS = 10000  # grid of the independent R_G scan


def _hybrid_root(fn: Callable[[float], float], lo: float, hi: float,
                 bisect_width: float = 1e-8, tol: float = 1e-12,
                 label: str = "equation") -> float:
    """Bisection to a narrow bracket, then Newton polish.

    The target functions here are smooth and monotone near their roots, so
    the hybrid is robust; the Newton derivative is a central difference.
    """
    flo, fhi = fn(lo), fn(hi)
    if not np.isfinite(flo) or not np.isfinite(fhi) or flo * fhi > 0.0:
        raise NumericFailure(f"no root: {label} has no sign change on [{lo}, {hi}]")
    a, b, fa = lo, hi, flo
    while b - a > bisect_width:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    x = 0.5 * (a + b)
    for _ in range(40):
        fx = fn(x)
        if abs(fx) <= tol:
            return x
        step = max(1e-9, 1e-7 * abs(x))
        dfx = (fn(x + step) - fn(x - step)) / (2.0 * step)
        if dfx == 0.0:
            break
        x_new = x - fx / dfx
        if not (a - bisect_width <= x_new <= b + bisect_width):
            x_new = 0.5 * (a + b)
        x = x_new
    if abs(fn(x)) > tol:
        raise NumericFailure(f"root polish for {label} stalled above tolerance {tol}")
    return x


def gamma_equation(gamma: float, s: float = 1.0) -> float:
    """Residual of the rate equation for a given shrinkage factor s."""
    return ((1.0 + gamma) ** (1.0 / (2.0 + gamma)) * (1.0 + 1.0 / (1.0 + gamma))
            - 1.0 - (2.0 - s) / gamma)


@dataclass(frozen=True)
class RateConstants:
    s: float
    gamma: float
    alpha: float
    beta: float
    residual: float


def solve_gamma(s: float) -> RateConstants:
    """Root gamma > 1 of the rate equation; fills alpha and beta from it."""
    if not 0.0 < s <= 1.0:
        raise ValueError("shrinkage must lie in (0, 1]")
    gamma = _hybrid_root(lambda g: gamma_equation(g, s), 1.0 + 1e-12, 100.0,
                         label="rate equation")
    alpha = gamma / (2.0 * (2.0 + gamma))
    return RateConstants(s=s, gamma=gamma, alpha=alpha, beta=0.5 - alpha,
                         residual=gamma_equation(gamma, s))


def beta_condition_lhs(beta: float) -> float:
    """(beta/(1-beta))^beta * (1-beta)^2 / (1-2 beta); admissible iff < 1."""
    return (beta / (1.0 - beta)) ** beta * (1.0 - beta) ** 2 / (1.0 - 2.0 * beta)


def solve_beta_star() -> float:
    """Critical beta where the admissibility condition becomes an equality.

    Cross-checked against 1/2 - alpha from the s=1 rate equation; the two
    must agree to 1e-9 or the solve is rejected.
    """
    beta = _hybrid_root(lambda b: beta_condition_lhs(b) - 1.0, 0.05, 0.4999,
                        label="critical beta")
    alpha1 = solve_gamma(1.0).alpha
    if abs((0.5 - beta) - alpha1) > 1e-9:
        raise NumericFailure("critical beta disagrees with the rate-equation exponent")
    return beta


def tau_star(beta: float) -> float:
    """Largest admissible tau for a given beta (closed form)."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    return ((1.0 - 2.0 * beta) / (1.0 - beta) ** 2) ** (1.0 / beta)


@dataclass(frozen=True)
class ConditionMargin:
    name: str
    value: float
    bound: float
    # True when the strict inequality (as oriented by `sense`) holds
    sense: str  # "<" or ">"
    passed: bool


@dataclass(frozen=True)
class ClosedFormBundle:
    beta: float
    tau: float
    c: float
    rg: float               # closed-form maximizer value
    rg_scan: float          # grid-scan value (independent route)
    rg_argmax: float
    F: Callable = field(repr=False)
    G: Callable = field(repr=False)
    condition_margins: tuple[ConditionMargin, ...] = ()

    @property
    def all_strict(self) -> bool:
        return all(m.passed for m in self.condition_margins)

    def g_grid(self, m: int = 2001) -> GridFunction:
        """G sampled on [tau, 1] for the integral-equation solver."""
        xs = np.linspace(self.tau, 1.0, m)
        return GridFunction(self.tau, 1.0, self.G(xs))


def bundle(beta: float, tau: float) -> ClosedFormBundle:
    """Closed forms c, F, G, R_G plus every parameter-condition margin.

    R_G is evaluated twice, once at the closed-form maximizer
    min(1, tau (1+beta)^(1/beta)) and once by a dense grid scan; a mismatch
    beyond 1e-8 indicates a transcription error and is asserted in tests.
    `tau >= tau_star(beta)` is not an error: the c < 1 margin is simply
    reported as violated.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    tpb = tau ** -beta
    c = beta * beta / ((1.0 - 2.0 * beta) * (tpb - 1.0))

    def F(a):
        return (c / beta) * (tpb * np.asarray(a, dtype=np.float64) ** beta - 1.0)

    def G(a):
        return c * tpb * np.asarray(a, dtype=np.float64) ** (beta - 1.0)

    def rg_at(a):
        return (c * a ** (-(beta + 1.0)) / beta) * ((a / tau) ** beta - 1.0)

    a_star = min(1.0, tau * (1.0 + beta) ** (1.0 / beta))
    rg = float(rg_at(a_star))
    grid = np.linspace(tau, 1.0, _RG_SCAN_POINTS)
    rg_scan_vals = rg_at(grid)
    rg_scan = float(np.max(rg_scan_vals))

    pref = beta / ((1.0 - 2.0 * beta) * (tpb - 1.0))
    cond2 = pref * (beta - 1.0 + tpb * (1.0 - 2.0 * beta) / (1.0 - beta)
                    - beta / tau * ((1.0 - 2.0 * beta) / (1.0 - beta)) ** (1.0 / beta))
    cond3 = pref * (beta - 1.0 + tpb * (1.0 - 2.0 * beta) / (1.0 - beta)
                    + beta * beta / (tau * (1.0 - beta)))
    small_beta = beta * (1.0 - beta) ** (1.0 / beta)
    crit = beta_condition_lhs(beta)

    margins = (
        ConditionMargin("c_below_one", c, 1.0, "<", c < 1.0),
        ConditionMargin("tail_lower_bound", cond2, -1.0, ">", cond2 > -1.0),
        ConditionMargin("tail_upper_bound", cond3, 1.0, "<", cond3 < 1.0),
        ConditionMargin("beta_power_bound", small_beta, 1.0, "<", small_beta < 1.0),
        ConditionMargin("beta_admissibility", crit, 1.0, "<", crit < 1.0),
    )
    return ClosedFormBundle(beta=beta, tau=tau, c=c, rg=rg, rg_scan=rg_scan,
                            rg_argmax=a_star, F=F, G=G, condition_margins=margins)


def operating_point(beta_margin: float = 0.002, tau_factor: float = 0.98):
    """Strict-margin (beta, tau): beta* minus a margin, tau backed off tau*.

    Both offsets keep every parameter inequality strictly satisfied; they
    are the defaults consumed by the profile and construction pipelines.
    """
    beta = solve_beta_star() - beta_margin
    if not 0.0 < beta < 0.5:
        raise ValueError("beta margin pushes beta outside (0, 1/2)")
    if not 0.0 < tau_factor <= 1.0:
        raise ValueError("tau factor must lie in (0, 1]")
    return beta, tau_factor * tau_star(beta)
