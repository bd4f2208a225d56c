"""Real functions sampled on a uniform grid, with the quadrature toolkit.

Everything downstream (integral equation, profile certification, the
worst-case construction) consumes functions of one variable through this
module: cubic-Hermite evaluation, composite Simpson, logarithmically
weighted tail integrals, and the scaled self-convolution
a^{-1} * integral_tau^a f(x) f(x/a) dx.
"""

from __future__ import annotations

import operator
import os
from functools import cached_property, reduce

import numpy as np

__all__ = ["GridFunction", "SelfConvPlan", "scaled_selfconv", "selfconv_on_nodes"]

_EDGE_SLACK = 1e-12
_BLOCK = 1 << 16  # points per block of whole rows of a self-convolution sweep


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
    (beyond a relative slack of 1e-12) evaluation is an error.
    """

    def __init__(self, lo: float, hi: float, values):
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

    def _inside(self, x, what: str) -> np.ndarray:
        """x as an array, checked to lie in [lo, hi] up to the edge slack."""
        x = np.asarray(x, dtype=np.float64)
        slack = _EDGE_SLACK * (self.hi - self.lo)
        if np.any(x < self.lo - slack) or np.any(x > self.hi + slack):
            raise ValueError(f"{what} outside the grid interval [{self.lo}, {self.hi}]")
        return x

    def __call__(self, x):
        """Cubic Hermite interpolant at the points x; equals scipy's
        ``CubicHermiteSpline`` with the same slopes bit for bit inside [lo, hi]."""
        x = self._inside(x, "evaluation")
        out = self._at(self.pieces, x)
        return float(out) if x.ndim == 0 else out

    def derivative(self, x):
        x = self._inside(x, "derivative")
        out = self._at(self._derivative, x)
        return float(out) if x.ndim == 0 else out

    def refined(self, factor: int = 2) -> "GridFunction":
        """Resample onto a grid with (M-1)*factor + 1 nodes."""
        mm = (self.m - 1) * factor + 1
        return GridFunction(self.lo, self.hi, self(np.linspace(self.lo, self.hi, mm)))

    # -- quadrature -------------------------------------------------------

    def integrate(self) -> float:
        """Composite Simpson over the nodes; exact for cubics."""
        return float(_simpson(self.values, self.h))

    def integral_between(self, u, v):
        """integral_u^v of g via the antiderivative of the interpolant."""
        u, v = self._inside(u, "integration limit"), self._inside(v, "integration limit")
        return self._at(self._antiderivative, v) - self._at(self._antiderivative, u)

    def log_between(self, u, v):
        """integral_u^v of g(z)/z dz."""
        u, v = self._inside(u, "log_between limit"), self._inside(v, "log_between limit")
        w = self._log_antiderivative
        return self._at(w, v) - self._at(w, u)

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(self.nodes, self.values))
        return f"# lo={self.lo!r},hi={self.hi!r},M={self.m}\nx,value\n" + rows

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        """Parse `to_csv` output; each row's x must be its grid node.

        Header keys other than lo, hi and M are ignored.
        """
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
        g = cls(float(head["lo"]), float(head["hi"]), np.array(vals))
        xs = np.array(xs)
        off = np.flatnonzero(~(np.abs(xs - g.nodes) <= _EDGE_SLACK * (g.hi - g.lo)))
        if off.size:
            i = int(off[0])
            raise ValueError(f"grid CSV row x={float(xs[i])!r} is not grid node {i}, "
                             f"{float(g.nodes[i])!r}")
        return g


# -- module-level operations ----------------------------------------------


def _simpson(y: np.ndarray, h: float):
    """Composite Simpson of samples y with spacing h along the last axis.

    No finiteness check: a non-finite sample gives a non-finite result.
    """
    s = (y[..., 0] + y[..., -1] + 4.0 * np.add.reduce(y[..., 1:-1:2], axis=-1)
         + 2.0 * np.add.reduce(y[..., 2:-1:2], axis=-1))
    return s * h / 3.0


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
        out = f(np.minimum(x / a, f.hi))
        return np.maximum(out, 0.0) if nonneg else out

    def first_factor(x):
        out = f(x)
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


# -- bulk self-convolution plan ---------------------------------------------


class SelfConvPlan:
    """Evaluates the scaled self-convolution at every node of one grid at once.

    Row i of the plan holds the query points x_j / x_i, j <= i.  They never
    change, so the plan keeps each one's interpolant piece and offset s,
    with s^2 and s^3, and a sweep costs one cubic over ~M^2/2 points plus
    a quadrature per row.  Quadrature is the end-corrected trapezoid used
    by ``scaled_selfconv`` (degenerate rows fall back to plain trapezoid).

    The rows are cut into blocks of whole rows, about _BLOCK points each,
    and the blocks are split across one worker thread per CPU this
    process may run on.  A row's points and its quadrature take the same
    operations whichever thread computes them, so a sweep's bits do not
    depend on the worker count.  The plan is a context manager: leaving
    it stops the workers and frees the tables.  The grid needs 0 < lo and
    hi <= 1, so that no query x_j / x_i falls below lo, where f counts as 0.
    """

    def __init__(self, grid: GridFunction):
        if not (0.0 < grid.lo and grid.hi <= 1.0):
            raise ValueError("a self-convolution plan needs a grid with 0 < lo and hi <= 1")
        self.lo, self.hi, self.m, self.h = grid.lo, grid.hi, grid.m, grid.h
        self.nodes = grid.nodes
        counts = np.arange(1, self.m + 1)
        self.offsets = np.cumsum(counts) - counts
        self.row_ends = self.offsets + counts - 1
        size = int(self.row_ends[-1]) + 1
        self.cols = np.empty(size, dtype=np.int32)
        self.piece = np.empty(size, dtype=np.int32)
        self.s, self.s2, self.s3 = np.empty(size), np.empty(size), np.empty(size)
        # a block starts at the row holding each multiple of _BLOCK
        firsts = np.unique(np.searchsorted(self.offsets, np.arange(0, size, _BLOCK), "right") - 1)
        blocks = list(zip(firsts.tolist(), [*firsts[1:].tolist(), self.m]))
        self._longest = max(int(self.row_ends[b - 1] + 1 - self.offsets[a]) for a, b in blocks)
        n = min(len(os.sched_getaffinity(0)), len(blocks))
        self._chunks = [blocks[w * len(blocks) // n:(w + 1) * len(blocks) // n]
                        for w in range(n)]
        self._pool = None
        if n > 1:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(n - 1)
        self._run(self._locate)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Stop the worker threads and drop the tables."""
        if self._pool is not None:
            self._pool.shutdown()
        self._pool = self.cols = self.piece = self.s = self.s2 = self.s3 = None

    def _run(self, task, *args) -> None:
        """task(blocks, *args) on every chunk of blocks, the first in this thread."""
        pending = [self._pool.submit(task, chunk, *args) for chunk in self._chunks[1:]]
        try:
            task(self._chunks[0], *args)
        finally:
            for fut in pending:
                fut.result()

    def _points(self, first: int, stop: int) -> slice:
        """The plan's points of the rows first .. stop - 1."""
        return slice(int(self.offsets[first]), int(self.row_ends[stop - 1]) + 1)

    def _locate(self, blocks) -> None:
        nodes = self.nodes
        for first, stop in blocks:
            pts = self._points(first, stop)
            rows = np.repeat(np.arange(first, stop), np.arange(first + 1, stop + 1))
            cols = np.arange(pts.stop - pts.start) - (self.offsets[rows] - pts.start)
            self.cols[pts] = cols
            queries = np.minimum(nodes[cols] / nodes[rows], self.hi)
            self.piece[pts], s = _locate(nodes, queries)
            self.s[pts] = s
            np.multiply(s, s, out=self.s2[pts])           # z * s, as _terms forms it
            np.multiply(self.s2[pts], s, out=self.s3[pts])

    def _fill(self, blocks, c, values, nonneg, mid, out) -> None:
        """out[i] = the quadrature of row i over the blocks, c f's piece table.

        mid is 4 f(x_m) f(x_m / x_1), the midpoint term of row 1.
        """
        size = self._longest
        p, t, idx = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
        powers = ((c[2], self.s), (c[1], self.s2), (c[0], self.s3))
        for first, stop in blocks:
            pts = self._points(first, stop)
            n = pts.stop - pts.start
            q, tt, i = p[:n], t[:n], idx[:n]
            # clamped f(x_j / x_i) f(x_j), the cubic summed left to right as
            # _value sums it: c3 + c2 s + c1 s^2 + c0 s^3
            i[...] = self.piece[pts]
            np.take(c[3], i, out=q, mode="clip")
            for row, power in powers:
                np.take(row, i, out=tt, mode="clip")
                tt *= power[pts]
                q += tt
            if nonneg:
                np.maximum(q, 0.0, out=q)  # kill cubic undershoot on clamped data
            i[...] = self.cols[pts]
            np.take(values, i, out=tt, mode="clip")
            q *= tt
            o = self.offsets[first:stop] - pts.start
            e = self.row_ends[first:stop] - pts.start
            rows = out[first:stop]
            rows[:] = self.h * (np.add.reduceat(q, o) - 0.5 * (q[o] + q[e]))
            # cubic-exact end correction, rows with at least three samples
            k = max(2 - first, 0)
            o, e = o[k:], e[k:]
            rows[k:] += self.h / 24.0 * (-3.0 * q[o] + 4.0 * q[o + 1] - q[o + 2]
                                         - 3.0 * q[e] + 4.0 * q[e - 1] - q[e - 2])
            if first == 0:
                # row 0 is the single point a = tau; the two-sample row 1
                # gets a midpoint Simpson instead of a bare trapezoid
                rows[0] = 0.0
                rows[1] = self.h / 6.0 * (q[1] + mid + q[2])

    def sweep(self, f: GridFunction) -> np.ndarray:
        if f.m != self.m or abs(f.lo - self.lo) > 1e-14 or abs(f.hi - self.hi) > 1e-14:
            raise ValueError("grid mismatch with plan")
        nonneg = float(np.min(f.values)) >= 0.0
        x_mid = 0.5 * (self.nodes[0] + self.nodes[1])
        f1 = f(x_mid)
        f2 = f(min(x_mid / self.nodes[1], self.hi))
        if nonneg:
            f1, f2 = max(f1, 0.0), max(f2, 0.0)
        out = np.empty(self.m)
        self._run(self._fill, f.pieces, f.values, nonneg, 4.0 * f1 * f2, out)
        return out / self.nodes


def selfconv_on_nodes(f: GridFunction, plan: SelfConvPlan | None = None) -> np.ndarray:
    """Scaled self-convolution evaluated at every node of f's own grid.

    plan is a SelfConvPlan for that grid; without one, a plan is built
    for this call alone.
    """
    if plan is not None:
        return plan.sweep(f)
    with SelfConvPlan(f) as plan:
        return plan.sweep(f)
