"""Real functions sampled on a uniform grid, with the quadrature toolkit.

Everything downstream (integral equation, profile certification, the
worst-case construction) consumes functions of one variable through this
module: cubic-Hermite evaluation, composite Simpson, logarithmically
weighted tail integrals, and the scaled self-convolution
a^{-1} * integral_tau^a f(x) f(x/a) dx.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = [
    "GridFunction",
    "integrate",
    "log_tail",
    "log_between",
    "scaled_selfconv",
    "selfconv_on_nodes",
]

_EDGE_SLACK = 1e-12


def _hermite_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite-difference slopes on a uniform grid."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


class GridFunction:
    """Function on [lo, hi] sampled at M equispaced nodes (M odd, >= 3).

    Values are immutable after construction.  Evaluation uses the cubic
    Hermite interpolant with centered-difference slopes; outside [lo, hi]
    evaluation is an error unless an extension rule is attached
    (``extend_left_zero`` / ``extend_right_hold``, the rules used for the
    profile construction).
    """

    def __init__(self, lo: float, hi: float, values,
                 extend_left_zero: bool = False,
                 extend_right_hold: bool = False):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        m = values.size
        if m < 3 or m % 2 == 0:
            raise ValueError("node count must be odd and at least 3")
        if not hi > lo:
            raise ValueError("need hi > lo")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.lo = float(lo)
        self.hi = float(hi)
        self.values = values
        values.flags.writeable = False
        self.extend_left_zero = bool(extend_left_zero)
        self.extend_right_hold = bool(extend_right_hold)
        self._nodes = None
        self._coeffs = None
        self._spline = None
        self._antideriv = None
        self._log_antideriv = None

    # -- basic geometry -------------------------------------------------

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def nodes(self) -> np.ndarray:
        """The M grid nodes (cached, read-only)."""
        if self._nodes is None:
            self._nodes = np.linspace(self.lo, self.hi, self.m)
            self._nodes.flags.writeable = False
        return self._nodes

    def with_extension(self, left_zero=True, right_hold=True) -> "GridFunction":
        return GridFunction(self.lo, self.hi, self.values,
                            extend_left_zero=left_zero,
                            extend_right_hold=right_hold)

    # -- evaluation ------------------------------------------------------

    def spline(self):
        """The interpolant as a scipy ``CubicHermiteSpline`` (imports scipy)."""
        if self._spline is None:
            from scipy.interpolate import CubicHermiteSpline
            self._spline = CubicHermiteSpline(
                self.nodes, self.values, _hermite_slopes(self.values, self.h))
        return self._spline

    def interpolant(self, x: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolant at the points x, without scipy.

        Outside [lo, hi] the end cubics extrapolate.  The coefficients, the
        interval search and the order of the polynomial terms are those of
        ``CubicHermiteSpline`` / ``PPoly``, so the result equals
        ``self.spline()(x)`` bit for bit.
        """
        if self._coeffs is None:
            y = self.values
            d = _hermite_slopes(y, self.h)
            dx = np.diff(self.nodes)
            slope = np.diff(y) / dx
            t = (d[:-1] + d[1:] - 2 * slope) / dx
            # PPoly starts its sum at 0.0, which turns a -0.0 value into +0.0
            self._coeffs = (t / dx, (slope - d[:-1]) / dx - t, d[:-1], 0.0 + y[:-1])
        c0, c1, c2, c3 = self._coeffs
        nodes = self.nodes
        i = np.clip(np.searchsorted(nodes, x, "right") - 1, 0, self.m - 2)
        s = x - nodes[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        slack = _EDGE_SLACK * (self.hi - self.lo)
        below = x < self.lo - slack
        above = x > self.hi + slack
        if below.any() and not self.extend_left_zero:
            raise ValueError(f"evaluation below lo={self.lo} without extension rule")
        if above.any() and not self.extend_right_hold:
            raise ValueError(f"evaluation above hi={self.hi} without extension rule")
        inside = np.clip(x, self.lo, self.hi)
        out = self.interpolant(inside)
        out[below] = 0.0
        out[above] = self.values[-1]
        return float(out[0]) if scalar else out

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        slack = _EDGE_SLACK * (self.hi - self.lo)
        if np.any(x < self.lo - slack) or np.any(x > self.hi + slack):
            raise ValueError("derivative requested outside the grid interval")
        out = self.spline().derivative()(np.clip(x, self.lo, self.hi))
        return float(out) if scalar else out

    def refined(self, factor: int = 2) -> "GridFunction":
        """Resample onto a grid with (M-1)*factor + 1 nodes."""
        mm = (self.m - 1) * factor + 1
        vals = self.interpolant(np.linspace(self.lo, self.hi, mm))
        return GridFunction(self.lo, self.hi, vals,
                            extend_left_zero=self.extend_left_zero,
                            extend_right_hold=self.extend_right_hold)

    # -- quadrature -------------------------------------------------------

    def integrate(self) -> float:
        """Composite Simpson over the nodes; exact for cubics."""
        y = self.values
        s = y[0] + y[-1] + 4.0 * np.add.reduce(y[1:-1:2]) + 2.0 * np.add.reduce(y[2:-1:2])
        return float(s * self.h / 3.0)

    def integral_between(self, u, v):
        """integral_u^v of g via the antiderivative of the interpolant."""
        slack = _EDGE_SLACK * (self.hi - self.lo)
        for lim in (np.asarray(u), np.asarray(v)):
            if np.any(lim < self.lo - slack) or np.any(lim > self.hi + slack):
                raise ValueError("integration limit outside the grid interval")
        if self._antideriv is None:
            self._antideriv = self.spline().antiderivative()
        w = self._antideriv
        return w(np.clip(v, self.lo, self.hi)) - w(np.clip(u, self.lo, self.hi))

    def _log_weight_antiderivative(self):
        if self._log_antideriv is None:
            nodes = self.nodes
            if nodes[0] <= 0.0:
                bad = (nodes <= 0.0) & (self.values != 0.0)
                if bad.any():
                    raise ValueError("g/z integrand diverges: nonzero value at a node <= 0")
                w = np.where(nodes > 0.0, self.values / np.where(nodes > 0.0, nodes, 1.0), 0.0)
            else:
                w = self.values / nodes
            from scipy.interpolate import CubicHermiteSpline
            spl = CubicHermiteSpline(nodes, w, _hermite_slopes(w, self.h))
            self._log_antideriv = spl.antiderivative()
        return self._log_antideriv

    def log_tail(self, x: float) -> float:
        """integral_x^hi of g(z)/z dz via the cached cumulative table."""
        slack = _EDGE_SLACK * (self.hi - self.lo)
        if x < self.lo - slack:
            if not self.extend_left_zero:
                raise ValueError("log_tail start below the grid interval")
            x = self.lo
        if x > self.hi + slack:
            raise ValueError("log_tail start above the grid interval")
        w = self._log_weight_antiderivative()
        return float(w(self.hi) - w(np.clip(x, self.lo, self.hi)))

    def log_between(self, u, v):
        """integral_u^v of g(z)/z dz; limits below lo use the zero extension."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        slack = _EDGE_SLACK * (self.hi - self.lo)
        if (np.any(u < self.lo - slack) or np.any(v < self.lo - slack)) and not self.extend_left_zero:
            raise ValueError("log_between limit below the grid interval")
        if np.any(u > self.hi + slack) or np.any(v > self.hi + slack):
            raise ValueError("log_between limit above the grid interval")
        w = self._log_weight_antiderivative()
        return w(np.clip(v, self.lo, self.hi)) - w(np.clip(u, self.lo, self.hi))

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        ext = ""
        if self.extend_left_zero:
            ext += ",ext_left=zero"
        if self.extend_right_hold:
            ext += ",ext_right=hold"
        buf = io.StringIO()
        buf.write(f"# lo={self.lo!r},hi={self.hi!r},M={self.m}{ext}\n")
        buf.write("x,value\n")
        for x, v in zip(self.nodes, self.values):
            buf.write(f"{x:.17g},{v:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        lo = hi = None
        left = right = False
        vals = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ")
                if body.startswith("lo="):
                    for part in body.split(","):
                        key, _, val = part.partition("=")
                        if key == "lo":
                            lo = float(val)
                        elif key == "hi":
                            hi = float(val)
                        elif key == "ext_left":
                            left = val == "zero"
                        elif key == "ext_right":
                            right = val == "hold"
                continue
            if line.startswith("x,"):
                continue
            vals.append(float(line.split(",")[1]))
        if lo is None or hi is None:
            raise ValueError("grid CSV is missing the lo/hi header")
        return cls(lo, hi, np.array(vals),
                   extend_left_zero=left, extend_right_hold=right)


# -- module-level operations ----------------------------------------------


def integrate(g: GridFunction) -> float:
    return g.integrate()


def log_tail(g: GridFunction, x: float) -> float:
    return g.log_tail(x)


def log_between(g: GridFunction, u, v):
    return g.log_between(u, v)


def _corrected_trapezoid(p: np.ndarray, h: float) -> float:
    """End-corrected trapezoid on uniform samples; exact for cubics.

    Callers with only two samples must supply a midpoint themselves (a
    single-panel trapezoid is two orders worse and shows up as a residual
    floor near the left endpoint).
    """
    n = p.size
    if n < 2:
        return 0.0
    trap = h * (np.add.reduce(p) - 0.5 * (p[0] + p[-1]))
    if n < 3:
        return float(trap)
    corr = h / 24.0 * (-3.0 * p[0] + 4.0 * p[1] - p[2]
                       - 3.0 * p[-1] + 4.0 * p[-2] - p[-3])
    return float(trap + corr)


def scaled_selfconv(f: GridFunction, a: float, tau: float) -> float:
    """a^{-1} * integral_tau^a f(x) f(x/a) dx with f treated as 0 below tau.

    ``tau`` must be the left endpoint of f's grid.  Returns 0 for a <= tau.
    For non-negative samples the interpolated factor is clamped at zero:
    cubic undershoot at a clamp kink is an artifact, and without the clamp
    the monotone sweep iteration loses its ordering at coarse grids.
    """
    if abs(tau - f.lo) > _EDGE_SLACK * max(1.0, abs(tau)):
        raise ValueError("tau must coincide with the grid's left endpoint")
    if a <= tau:
        return 0.0
    slack = _EDGE_SLACK * (f.hi - f.lo)
    if a > f.hi + slack:
        raise ValueError("a must lie in [tau, hi]")
    a = min(a, f.hi)
    nodes = f.nodes
    spl = f.spline()
    nonneg = float(np.min(f.values)) >= 0.0

    def second_factor(x):
        out = spl(np.minimum(x / a, f.hi))
        return np.maximum(out, 0.0) if nonneg else out

    def first_factor(x):
        out = spl(x)
        return np.maximum(out, 0.0) if nonneg else out

    j = int(np.searchsorted(nodes, a + slack) - 1)
    xs = nodes[: j + 1]
    p = f.values[: j + 1] * second_factor(xs)
    if j == 1:
        # single panel: Simpson with a midpoint sample
        x_mid = 0.5 * (nodes[0] + nodes[1])
        p_mid = float(first_factor(x_mid)) * float(second_factor(x_mid))
        total = f.h / 6.0 * (p[0] + 4.0 * p_mid + p[1])
    else:
        total = _corrected_trapezoid(p, f.h)
    rem = a - nodes[j]
    if rem > slack:
        # sub-grid tail panel, Simpson with a midpoint sample
        x_mid = nodes[j] + 0.5 * rem
        p_mid = float(first_factor(x_mid)) * float(second_factor(x_mid))
        p_end = float(first_factor(a)) * float(second_factor(a))
        total += rem / 6.0 * (p[-1] + 4.0 * p_mid + p_end)
    return total / a


# -- bulk self-convolution kernel -------------------------------------------


class _SelfConvKernel:
    """Evaluates the scaled self-convolution at every grid node at once.

    Precomputes the triangular query table x_j / x_i (j <= i) so a sweep
    costs one interpolant evaluation over ~M^2/2 points plus row
    reductions.  Quadrature is the end-corrected trapezoid used by
    ``scaled_selfconv`` (degenerate rows fall back to plain trapezoid).
    """

    def __init__(self, lo: float, hi: float, m: int):
        self.lo, self.hi, self.m = lo, hi, m
        nodes = np.linspace(lo, hi, m)
        self.nodes = nodes
        self.h = (hi - lo) / (m - 1)
        counts = np.arange(1, m + 1)
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        rows = np.repeat(np.arange(m), counts)
        cols = np.concatenate([np.arange(i + 1) for i in range(m)])
        self.cols = cols
        self.queries = np.minimum(nodes[cols] / nodes[rows], hi)
        self.row_ends = self.offsets + np.arange(m)

    def sweep(self, f: GridFunction) -> np.ndarray:
        if f.m != self.m or abs(f.lo - self.lo) > 1e-14 or abs(f.hi - self.hi) > 1e-14:
            raise ValueError("grid mismatch with kernel")
        spl = f.spline()
        nonneg = float(np.min(f.values)) >= 0.0
        p = spl(self.queries)
        if nonneg:
            np.maximum(p, 0.0, out=p)  # kill cubic undershoot on clamped data
        p *= f.values[self.cols]
        sums = np.add.reduceat(p, self.offsets)
        first = p[self.offsets]
        last = p[self.row_ends]
        out = np.zeros(self.m)
        trap = self.h * (sums - 0.5 * (first + last))
        out[1:] = trap[1:]
        # cubic-exact end correction, rows with at least three samples
        o = self.offsets[2:]
        e = self.row_ends[2:]
        corr = self.h / 24.0 * (-3.0 * p[o] + 4.0 * p[o + 1] - p[o + 2]
                                - 3.0 * p[e] + 4.0 * p[e - 1] - p[e - 2])
        out[2:] += corr
        # the two-sample row gets a midpoint Simpson instead of a bare trapezoid
        x_mid = 0.5 * (self.nodes[0] + self.nodes[1])
        f1 = float(spl(x_mid))
        f2 = float(spl(min(x_mid / self.nodes[1], self.hi)))
        if nonneg:
            f1, f2 = max(f1, 0.0), max(f2, 0.0)
        o1 = self.offsets[1]
        out[1] = self.h / 6.0 * (p[o1] + 4.0 * f1 * f2 + p[o1 + 1])
        return out / self.nodes


_KERNELS: dict[tuple, _SelfConvKernel] = {}


def selfconv_on_nodes(f: GridFunction) -> np.ndarray:
    """Scaled self-convolution evaluated at every node of f's own grid."""
    key = (f.lo, f.hi, f.m)
    kern = _KERNELS.get(key)
    if kern is None:
        if len(_KERNELS) > 4:
            _KERNELS.clear()
        kern = _SelfConvKernel(*key)
        _KERNELS[key] = kern
    return kern.sweep(f)
