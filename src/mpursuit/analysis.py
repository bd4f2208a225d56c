"""Empirical decay-rate fits and bound witnesses for greedy traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greedy_algorithms import GreedyTrace

__all__ = ["RateFit", "BoundReport", "fit_decay", "check_bounds"]

_FLOOR = 1e-13


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    range: tuple[int, int]
    points: int


def _usable(trace: GreedyTrace, index_offset: int):
    """(n, residual) pairs above the noise floor, n in the caller's indexing."""
    norms = trace.residual_norms
    ns = index_offset + trace.step_indices
    keep = norms > _FLOOR
    return ns[keep], norms[keep]


def fit_decay(trace: GreedyTrace, n_min: int, n_max: int,
              index_offset: int = 0) -> RateFit:
    """Least-squares slope of log residual against log step index.

    `index_offset` shifts each step's own n (a run on the worst-case
    instance restarts at 1 while its schedule is indexed from N).
    """
    if not n_max > n_min >= 1:
        raise ValueError("need n_max > n_min >= 1")
    ns, norms = _usable(trace, index_offset)
    m = (ns >= n_min) & (ns <= n_max)
    if int(m.sum()) < 10:
        raise ValueError(f"only {int(m.sum())} usable points in [{n_min}, {n_max}]")
    x = np.log(ns[m].astype(np.float64))
    y = np.log(norms[m])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=max(0.0, min(1.0, r2)),
                   range=(n_min, n_max), points=int(m.sum()))


@dataclass(frozen=True)
class BoundReport:
    upper_witness: float   # sup_n |r_n| n^alpha / variation_bound
    lower_witness: float   # inf over n >= 10 of the same quantity


def check_bounds(trace: GreedyTrace, alpha: float, variation_bound: float,
                 index_offset: int = 0) -> BoundReport:
    """Constant witnesses for the n^-alpha upper and lower rate bounds."""
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not 0.0 < variation_bound < np.inf:
        raise ValueError("variation_bound must be positive and finite")
    norms = trace.residual_norms
    ns = index_offset + trace.step_indices
    scaled = norms * ns.astype(np.float64) ** alpha / variation_bound
    late = scaled[(ns >= 10) & (norms > _FLOOR)]
    lower = float(late.min()) if late.size else 0.0
    if np.any(norms <= _FLOOR):
        lower = 0.0  # residual hit zero: the lower bound is vacuous
    return BoundReport(upper_witness=float(scaled.max()), lower_witness=lower)

