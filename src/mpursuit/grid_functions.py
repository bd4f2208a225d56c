"""Real functions sampled on a uniform grid, with the quadrature toolkit.

Everything downstream (integral equation, profile certification, the
worst-case construction) consumes functions of one variable through this
module: cubic-Hermite evaluation, composite Simpson, logarithmically
weighted tail integrals, and the scaled self-convolution
a^{-1} * integral_tau^a f(x) f(x/a) dx.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache, reduce

import numpy as np

__all__ = [
    "GridFunction",
    "integrate",
    "log_tail",
    "scaled_selfconv",
    "selfconv_on_nodes",
]

_EDGE_SLACK = 1e-12
_BLOCK = 1 << 16  # points per block of a self-convolution sweep


def _hermite_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite-difference slopes on a uniform grid."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


# A piece table has one polynomial per grid interval, highest power first:
# row k of a (K, M-1) table multiplies s**(K-1-k), s the offset from the
# interval's left node.  Coefficients, interval search and term order are
# scipy PPoly's, so each evaluation equals CubicHermiteSpline's bit for bit;
# the constant row carries PPoly's "0.0 +" start (-0.0 becomes +0.0).


def _hermite_pieces(nodes: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Piece table of the cubic Hermite interpolant of y at the nodes."""
    d = _hermite_slopes(y, h)
    dx = np.diff(nodes)
    slope = np.diff(y) / dx
    t = (d[:-1] + d[1:] - 2 * slope) / dx
    return np.array([t / dx, (slope - d[:-1]) / dx - t, d[:-1], 0.0 + y[:-1]])


def _antiderivative_pieces(c: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Piece table of the antiderivative that vanishes at nodes[0].

    A piece's constant is the previous piece's value at its right end, its
    terms added to that constant in PPoly's order: a sequential loop.
    """
    a = np.zeros((c.shape[0] + 1, c.shape[1]))
    a[:-1] = c / np.arange(c.shape[0], 0, -1)[:, None]
    rises = _terms(a[:, :-1], np.diff(nodes)[:-1])[1:]  # each piece at its right end
    const = [0.0]
    for rise in zip(*(t.tolist() for t in rises)):
        const.append(reduce(operator.add, rise, const[-1]))
    a[-1] = const
    return a


def _terms(c: np.ndarray, s: np.ndarray) -> list:
    """The terms c[-1], c[-2] s, c[-3] s^2, ... of the pieces at offsets s."""
    terms, z = [c[-1]], s
    for k in range(c.shape[0] - 2, -1, -1):
        terms.append(c[k] * z)
        if k:
            z = z * s
    return terms


def _value(c: np.ndarray, i, s):
    """Pieces i of table c at offsets s, their terms summed left to right as PPoly does."""
    return reduce(operator.add, _terms(c.take(i, axis=1), s))


def _locate(nodes: np.ndarray, x):
    """Piece index of each point x (the end pieces extrapolate) and its offset.

    Searching the interior nodes gives PPoly's interval, searchsorted(nodes,
    x, "right") - 1 clipped to [0, M-2], in one call.
    """
    i = np.searchsorted(nodes[1:-1], x, "right")
    return i, x - nodes[i]


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

    # -- basic geometry -------------------------------------------------

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The M grid nodes (cached, read-only)."""
        nodes = np.linspace(self.lo, self.hi, self.m)
        nodes.flags.writeable = False
        return nodes

    def with_extension(self, left_zero=True, right_hold=True) -> "GridFunction":
        return GridFunction(self.lo, self.hi, self.values,
                            extend_left_zero=left_zero,
                            extend_right_hold=right_hold)

    # -- evaluation ------------------------------------------------------

    @cached_property
    def pieces(self) -> np.ndarray:
        """Piece table (4 x M-1) of the cubic Hermite interpolant (cached)."""
        return _hermite_pieces(self.nodes, self.values, self.h)

    @cached_property
    def _derivative(self) -> np.ndarray:
        c = self.pieces
        return np.array([3.0 * c[0], 2.0 * c[1], 0.0 + c[2]])

    @cached_property
    def _antiderivative(self) -> np.ndarray:
        return _antiderivative_pieces(self.pieces, self.nodes)

    @cached_property
    def _log_antiderivative(self) -> np.ndarray:
        """Antiderivative of g(z)/z, zero at lo; g must vanish at nodes <= 0."""
        nodes = self.nodes
        if nodes[0] <= 0.0:
            bad = (nodes <= 0.0) & (self.values != 0.0)
            if bad.any():
                raise ValueError("g/z integrand diverges: nonzero value at a node <= 0")
            w = np.where(nodes > 0.0, self.values / np.where(nodes > 0.0, nodes, 1.0), 0.0)
        else:
            w = self.values / nodes
        return _antiderivative_pieces(_hermite_pieces(nodes, w, self.h), nodes)

    def _at(self, table: np.ndarray, x) -> np.ndarray:
        """A piece table at x clipped to [lo, hi]."""
        return _value(table, *_locate(self.nodes, np.clip(x, self.lo, self.hi)))

    def interpolant(self, x: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolant at the points x; the end cubics extrapolate.

        Equals scipy's ``CubicHermiteSpline`` with the same slopes bit for bit.
        """
        return _value(self.pieces, *_locate(self.nodes, x))

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
        out = self._at(self._derivative, x)
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
        return self._at(self._antiderivative, v) - self._at(self._antiderivative, u)

    def log_between(self, u, v):
        """integral_u^v of g(z)/z dz; limits below lo use the zero extension."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        slack = _EDGE_SLACK * (self.hi - self.lo)
        if (np.any(u < self.lo - slack) or np.any(v < self.lo - slack)) and not self.extend_left_zero:
            raise ValueError("log_between limit below the grid interval")
        if np.any(u > self.hi + slack) or np.any(v > self.hi + slack):
            raise ValueError("log_between limit above the grid interval")
        w = self._log_antiderivative
        return self._at(w, v) - self._at(w, u)

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        ext = ",ext_left=zero" if self.extend_left_zero else ""
        ext += ",ext_right=hold" if self.extend_right_hold else ""
        rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(self.nodes, self.values))
        return f"# lo={self.lo!r},hi={self.hi!r},M={self.m}{ext}\nx,value\n" + rows

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        """Parse `to_csv` output; each row's x must be its grid node."""
        head, xs, vals = {}, [], []
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("#"):
                if line.lstrip("# ").startswith("lo="):
                    head = dict(part.partition("=")[::2]
                                for part in line.lstrip("# ").split(","))
            elif line and not line.startswith("x,"):
                try:
                    x, v = map(float, line.split(","))
                except ValueError:
                    raise ValueError(f"grid CSV row {line!r} is not two numbers") from None
                xs.append(x)
                vals.append(v)
        if not {"lo", "hi", "M"} <= head.keys():
            raise ValueError("grid CSV is missing the lo/hi/M header")
        if len(vals) != int(head["M"]):
            raise ValueError(f"grid CSV has {len(vals)} rows, its header says M={head['M']}")
        g = cls(float(head["lo"]), float(head["hi"]), np.array(vals),
                extend_left_zero=head.get("ext_left") == "zero",
                extend_right_hold=head.get("ext_right") == "hold")
        xs = np.array(xs)
        off = np.flatnonzero(~(np.abs(xs - g.nodes) <= _EDGE_SLACK * (g.hi - g.lo)))
        if off.size:
            i = int(off[0])
            raise ValueError(f"grid CSV row x={float(xs[i])!r} is not grid node {i}, "
                             f"{float(g.nodes[i])!r}")
        return g


# -- module-level operations ----------------------------------------------


def integrate(g: GridFunction) -> float:
    return g.integrate()


def log_tail(g: GridFunction, x: float) -> float:
    """integral_x^hi of g(z)/z dz."""
    return float(g.log_between(x, g.hi))


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
    nonneg = float(np.min(f.values)) >= 0.0

    def second_factor(x):
        out = f.interpolant(np.minimum(x / a, f.hi))
        return np.maximum(out, 0.0) if nonneg else out

    def first_factor(x):
        out = f.interpolant(x)
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

    The query points x_j / x_i (j <= i) never change, so the kernel keeps
    each one's interpolant piece and offset, and a sweep costs one
    polynomial evaluation over ~M^2/2 points, in blocks of _BLOCK, plus
    row reductions.  Quadrature is the end-corrected trapezoid used by
    ``scaled_selfconv`` (degenerate rows fall back to plain trapezoid).
    """

    def __init__(self, lo: float, hi: float, m: int):
        self.lo, self.hi, self.m = lo, hi, m
        nodes = np.linspace(lo, hi, m)
        self.nodes = nodes
        self.h = (hi - lo) / (m - 1)
        counts = np.arange(1, m + 1)
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.row_ends = self.offsets + np.arange(m)
        rows = np.repeat(np.arange(m, dtype=np.int32), counts)
        self.cols = np.concatenate([np.arange(i + 1, dtype=np.int32) for i in range(m)])
        self.piece = np.empty(rows.size, dtype=np.int32)
        self.offset = np.empty(rows.size)
        for blk in self._blocks():
            queries = np.minimum(nodes[self.cols[blk]] / nodes[rows[blk]], hi)
            self.piece[blk], self.offset[blk] = _locate(nodes, queries)

    def _blocks(self):
        return (slice(k, k + _BLOCK) for k in range(0, self.cols.size, _BLOCK))

    def sweep(self, f: GridFunction) -> np.ndarray:
        if f.m != self.m or abs(f.lo - self.lo) > 1e-14 or abs(f.hi - self.hi) > 1e-14:
            raise ValueError("grid mismatch with kernel")
        nonneg = float(np.min(f.values)) >= 0.0
        p = np.empty(self.cols.size)
        for blk in self._blocks():
            q = _value(f.pieces, self.piece[blk], self.offset[blk])
            if nonneg:
                np.maximum(q, 0.0, out=q)  # kill cubic undershoot on clamped data
            np.multiply(q, f.values[self.cols[blk]], out=p[blk])
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
        f1 = float(f.interpolant(x_mid))
        f2 = float(f.interpolant(min(x_mid / self.nodes[1], self.hi)))
        if nonneg:
            f1, f2 = max(f1, 0.0), max(f2, 0.0)
        o1 = self.offsets[1]
        out[1] = self.h / 6.0 * (p[o1] + 4.0 * f1 * f2 + p[o1 + 1])
        return out / self.nodes


# a solve sweeps one grid many times: keep the plans of the last few grids
_kernel = lru_cache(maxsize=5)(_SelfConvKernel)


def selfconv_on_nodes(f: GridFunction) -> np.ndarray:
    """Scaled self-convolution evaluated at every node of f's own grid."""
    return _kernel(f.lo, f.hi, f.m).sweep(f)
