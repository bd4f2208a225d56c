"""Greedy approximation algorithms over finite symmetric dictionaries.

The pure greedy algorithm (matching pursuit), its shrinkage variant, the
orthogonal greedy algorithm, and a relaxed greedy algorithm.  A Dictionary
stores one representative per +/- atom pair; selection always considers
both signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .linear_core import CoeffVector, lazy_zeros, page_rows

__all__ = ["Dictionary", "TraceStep", "GreedyTrace", "select_atom", "run",
           "check_algorithm", "ALGORITHMS"]

ALGORITHMS = ("pga", "pga_shrink", "oga", "rga")

RESIDUAL_HALT = 1e-14
UNIT_NORM_TOL = 1e-9
# Selection multiplies the dictionary by a prefix of the residual whose
# length is a multiple of this.  The products it drops are exact zeros; with
# OpenBLAS such a prefix gave traces bit-identical to full-width selection on
# the 2500 and 5000 instances, while an unaligned prefix changes the kernel's
# tail handling and with it the last bit of some products.
_PREFIX_ALIGN = 64
_REORTHOGONALIZE = 2.0 ** -0.5  # DGKS: Daniel, Gragg, Kaufman & Stewart, 1976
_LOOKAHEAD = 64  # most oga steps one block guesses and checks
_TILE = 512      # oga basis rows per tile
_GRAM_BLOCK = 256  # most Gram rows one block product forms
_GRAM_STREAMS = 3  # Gram blocks kept, one per stream of picks


class Dictionary:
    """Finite symmetric set of unit atoms with fast best-atom selection.

    The atoms are the rows of one float64 matrix, held without a copy when
    each row is contiguous, as in C order or in a store of `page_rows`
    (a copy in C order otherwise): atom i is a read-only view of the first
    lengths[i] entries of row i, and the rest of the row must be zero.
    `lengths` is kept as a read-only int array.
    """

    def __init__(self, rows: np.ndarray, lengths: Sequence[int], labels: Sequence[str]):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.strides[1] != 8 or rows.strides[0] < 8 * rows.shape[1]:
            rows = np.ascontiguousarray(rows)
        labels = [str(s) for s in labels]
        if not len(lengths) == len(labels) == len(rows):
            raise ValueError("one length and one label per atom required")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be unique")
        # row by row, with no temporary the size of the rows; a NaN norm fails
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"atom {labels[i]} has norm {float(norms[i])!r}, expected 1")
        # selection reads only the live prefix, so a row must vanish beyond
        # its length; a NaN in the tail is nonzero too
        for label, row, n in zip(labels, rows, lengths):
            if not 0 <= n <= rows.shape[1]:
                raise ValueError(f"atom {label} has length {n}, outside [0, {rows.shape[1]}]")
            if row[n:].any():
                raise ValueError(f"atom {label} is nonzero beyond its length {n}")
        self._matrix = rows
        self.lengths = np.array(lengths, dtype=np.intp)
        self.lengths.flags.writeable = False
        self.atoms = [CoeffVector(row[:n]) for row, n in zip(rows, lengths)]
        self.labels = labels

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def width(self) -> int:
        return self._matrix.shape[1]

    def matrix(self) -> np.ndarray:
        """The atom store: one zero-padded row per atom."""
        return self._matrix


class TraceStep(NamedTuple):
    step_index: int
    atom_id: str
    sign: int
    coefficient: float
    residual_norm: float


@dataclass
class GreedyTrace:
    """Per-step record of one algorithm run."""

    steps: list[TraceStep] = field(default_factory=list)

    @property
    def residual_norms(self) -> np.ndarray:
        return np.array([s.residual_norm for s in self.steps])

    @property
    def step_indices(self) -> np.ndarray:
        return np.array([s.step_index for s in self.steps], dtype=np.intp)

    CSV_HEADER = "n,residual_norm,atom_id,sign,coefficient"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for s in self.steps:
            lines.append(f"{s.step_index},{s.residual_norm:.17g},{s.atom_id},"
                         f"{s.sign},{s.coefficient:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> tuple["GreedyTrace", int]:
        """Parse `to_csv` output and the `# index_offset=` line `mpursuit run` writes
        above it: (trace, offset), the offset 0 when the line is absent.  A second
        offset line, one that is not an integer >= 0, or a row whose n is below 1
        or not above the previous row's raises ValueError."""
        trace, offset = cls(), None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# index_offset="):
                value = line.partition("=")[2]
                if not value.isdecimal():
                    raise ValueError(f"trace line {line!r} is not an index offset >= 0")
                if offset is not None:
                    raise ValueError("trace CSV repeats index_offset=")
                offset = int(value)
            elif line and not line.startswith("#") and line != cls.CSV_HEADER:
                try:
                    n, rn, atom, sign, coeff = line.split(",")
                    step = TraceStep(int(n), atom, int(sign), float(coeff), float(rn))
                except ValueError:
                    raise ValueError(f"trace CSV row {line!r} is not {cls.CSV_HEADER}") from None
                last = trace.steps[-1].step_index if trace.steps else 0
                if not step.step_index > last:
                    raise ValueError(f"trace CSV row {line!r}: n must be above {last}")
                trace.steps.append(step)
        return trace, offset or 0


def _best(vals: np.ndarray):
    """Index, sign and magnitude of the largest |vals|: the tie rule of every
    selection.  np.argmax resolves exact ties at the lowest index; the sign
    is +1 when the value is zero."""
    j = int(np.argmax(np.abs(vals)))
    v = float(vals[j])
    return j, (1 if v >= 0.0 else -1), abs(v)


def _prefix_cols(matrix: np.ndarray, live: int) -> int:
    """Columns under a live prefix, rounded up to a multiple of _PREFIX_ALIGN."""
    return min(matrix.shape[1], -(-live // _PREFIX_ALIGN) * _PREFIX_ALIGN)


def select_atom(residual: CoeffVector, dictionary: Dictionary):
    """Best signed atom: (atom_id, sign, value) with value = max <r, +/-d> >= 0."""
    if len(dictionary) == 0:
        raise ValueError("empty dictionary")
    mat = dictionary.matrix()
    r = residual.padded(max(dictionary.width, residual.active_len))
    cols = _prefix_cols(mat, residual.active_len)
    j, sign, value = _best(mat[:, :cols] @ r[:cols])
    return dictionary.labels[j], sign, value


def check_algorithm(algorithm: str) -> None:
    """Raise ValueError unless `algorithm` is one of ALGORITHMS."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")


class _Basis:
    """OGA's orthonormal rows, held in one `page_rows` store and read in tiles.

    The store has room for `rows` rows: a run appends at most one a step
    and one an atom, and no more orthonormal rows than the width.  Row i
    is written once, on its own live prefix.  `views()` reads the store in
    tiles of _TILE rows, each as wide as the widest row written into it,
    so products read no zero corner outside a tile; the rows not yet
    written take no resident memory.
    """

    def __init__(self, rows: int, width: int):
        self.store = page_rows(rows, width)
        self.cols: list[int] = []  # per tile: the widest row written into it
        self.size = 0

    def views(self) -> list[np.ndarray]:
        filled = self.store[:self.size]
        return [filled[a:a + _TILE, :c] for a, c in zip(range(0, self.size, _TILE), self.cols)]

    def append(self, rows: np.ndarray) -> None:
        """Add orthonormal rows, each zero beyond its own live prefix."""
        a, b, cols = self.size, self.size + len(rows), rows.shape[1]
        self.store[a:b, :cols] = rows
        first = a // _TILE
        self.cols[first:] = [max(c, cols) for c in self.cols[first:]]
        self.cols += [cols] * (-(-b // _TILE) - len(self.cols))
        self.size = b


def _project(x: np.ndarray, views: list[np.ndarray]) -> None:
    """Classical Gram-Schmidt in place: x -= x V^T V for every view V, whose
    rows are orthonormal and no wider than x.  Every view's coefficients are
    formed before any subtraction."""
    coefs = [x[:, :v.shape[1]] @ v.T for v in views]
    for v, w in zip(views, coefs):
        x[:, :v.shape[1]] -= w @ v


def _oga(f: CoeffVector, dictionary: Dictionary, steps: int):
    """The orthogonal greedy algorithm in verified look-ahead blocks.

    Returns the trace and the final residual.  A block's first atom is the
    exact selection j; atoms j+1 .. j+m-1 are guesses.  The block projects
    all m atoms against the basis at once, then finishes them row by row
    (the rows of the block before it, the DGKS re-check, the 1e-12 rule),
    keeping the residual after every row.  One product of the dictionary
    with those residuals then gives each row's next selection, and a guess
    is kept only while it equals that selection: the first miss drops the
    rows after it, and the selection that missed is the next exact one.
    The projection of -d is that of d negated, bit for bit, and the
    residual update is the same for both, so the guesses need no sign.
    """
    mat, lengths = dictionary.matrix(), dictionary.lengths
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    trace = GreedyTrace()
    basis = _Basis(min(steps, len(mat), mat.shape[1]), mat.shape[1])
    live = f.active_len
    c = _prefix_cols(mat, live)
    j, sign, value = _best(mat[:, :c] @ r[:c])
    m = 1
    while True:
        n = len(trace.steps)
        m = min(m, steps - n, len(mat) - j, max(1, mat.shape[1] - basis.size))
        lives = list(accumulate(lengths[j:j + m].tolist(), max, initial=live))[1:]
        cols = [_prefix_cols(mat, lv) for lv in lives]
        block = mat[j:j + m, :cols[-1]].copy()
        _project(block, basis.views())
        resid = np.empty((m, cols[-1]))
        norms, kept = [], []  # kept[i]: the block's rows in the basis after row i
        nkept = 0
        for i, c in enumerate(cols):
            if nkept < i:  # an earlier row was dependent: its slot takes this row
                block[nkept] = block[i]
            q = block[nkept:nkept + 1, :c]
            if nkept:
                _project(q, [block[:nkept, :c]])
            nb = float(np.linalg.norm(q))
            if not nb >= _REORTHOGONALIZE:  # of a unit atom; or NaN
                _project(q, basis.views() + ([block[:nkept, :c]] if nkept else []))
                nb = float(np.linalg.norm(q))
            if nb > 1e-12:
                q /= nb
                nkept += 1
                q = q[0]
                r[:c] -= (r[:c] @ q) * q
            kept.append(nkept)
            resid[i] = r[:cols[-1]]
            norms.append(float(np.linalg.norm(r)))
            if norms[-1] < RESIDUAL_HALT:
                m = i + 1
                break
        # each row's next selection, except after the run's last step
        last = n + m == steps or norms[-1] < RESIDUAL_HALT
        nsel = m - 1 if last else m
        sel = resid[:nsel, :cols[m - 1]] @ mat[:, :cols[m - 1]].T
        picks, acc = [(j, sign, value)], 1  # acc: rows whose atom is the selection
        while acc <= nsel:  # sel[acc-1] selects after row acc-1
            nxt = _best(sel[acc - 1])
            if acc == m or nxt[0] != j + acc:
                break
            picks.append(nxt)
            acc += 1
        for i, (jj, ss, vv) in enumerate(picks):
            if not (math.isfinite(norms[i]) and math.isfinite(vv)):
                raise RuntimeError(f"numeric breakdown at step {n + i + 1}")
            trace.steps.append(TraceStep(n + i + 1, dictionary.labels[jj], ss, vv, norms[i]))
        if kept[acc - 1]:
            basis.append(block[:kept[acc - 1], :cols[acc - 1]])
        live = lives[acc - 1]
        if acc < m:  # a miss: back to the residual after the last accepted row
            r[:cols[-1]] = resid[acc - 1]
        elif last:
            return trace, r
        m = min(2 * m, _LOOKAHEAD) if acc == m and nxt[0] == j + m else 1
        j, sign, value = nxt


class _GramRows:
    """Rows of the Gram matrix G = D D^T, formed in blocks when a pick needs them.

    A block is the rows j .. j+m-1, one product D[j:j+m, :L] @ D[:, :L].T
    with L the 64-aligned prefix of the block's longest atom: the columns it
    drops are exact zeros of those atoms.  _GRAM_STREAMS blocks are kept.
    A row outside them that comes right after one of them opens a block of
    twice that one's rows, at most _GRAM_BLOCK, in its place; any other row
    opens a block of one in place of the oldest.  So each stream of picks
    that runs on in storage order doubles its own blocks.  A stream's first
    block opens a `lazy_zeros` buffer of _GRAM_BLOCK rows, backed only as
    it is written, and each block that replaces it is formed into that
    buffer, so a stream holds one block's rows, not two.  A row read stays
    valid until the next read.
    """

    def __init__(self, mat: np.ndarray, lengths: np.ndarray):
        self.mat, self.lengths = mat, lengths
        self.blocks: list[tuple[int, np.ndarray]] = []  # (first row, rows), oldest first

    def __getitem__(self, j: int) -> np.ndarray:
        blocks = self.blocks
        m, kept, buf = 1, blocks[1 - _GRAM_STREAMS:], None  # a new stream drops the oldest
        for b, (lo, rows) in enumerate(blocks):
            if lo <= j < lo + len(rows):
                return rows[j - lo]
            if j == lo + len(rows):  # the stream of block b runs on: it replaces b
                m, kept = min(2 * len(rows), _GRAM_BLOCK), blocks[:b] + blocks[b + 1:]
                buf = rows.base   # the stream's buffer, of which rows are the first
        mat = self.mat
        if buf is None:
            buf = lazy_zeros((min(_GRAM_BLOCK, len(mat)), len(mat)))
        m = min(m, len(mat) - j)
        cols = _prefix_cols(mat, int(self.lengths[j:j + m].max()))
        rows = np.matmul(mat[j:j + m, :cols], mat[:, :cols].T, out=buf[:m])
        self.blocks = [*kept, (j, rows)]
        return rows[0]


def run(algorithm: str, f: CoeffVector, dictionary: Dictionary, steps: int,
        shrinkage: float = 1.0, variation_bound: float | None = None) -> GreedyTrace:
    """Run a greedy algorithm for up to `steps` iterations.

    pga / pga_shrink update the residual by r -> r - s <r, d> d for the
    selected signed atom d.  oga re-projects onto the span of all selected
    atoms: each new atom is orthogonalized against the basis by one pass of
    classical Gram-Schmidt, repeated when it keeps less than 1/sqrt(2) of
    the atom's norm (DGKS), and the residual loses its component along the
    normalized result.  rga mixes in each selected atom with the classical
    2/n relaxation schedule scaled by `variation_bound`.  The run halts
    early once the residual norm falls below 1e-14.

    Under every algorithm the residual is a combination of f and the atoms
    selected so far, so it vanishes beyond the longest of them; selection
    and the oga projection read only that live prefix.

    pga, pga_shrink and rga select from running inner products c = D r
    (Mallat & Zhang, 1993).  c starts as D f over the live prefix, and each
    step updates it in O(#atoms) from the selected atom's row of the Gram
    matrix G = D D^T, where a direct selection multiplies the whole
    dictionary by r.  The rows of G are formed in blocks as the picks need
    them (_GramRows), so a run never holds the whole of G.  The residual
    is still updated explicitly, so every residual norm comes from r.

    oga cannot update c that way: its update is a projection onto the
    span, so c would need D times each new basis vector.  It advances in
    blocks instead (_oga): the block's first atom is the exact selection,
    the next up to _LOOKAHEAD - 1 atoms in storage order are guesses, and
    one product of D with the residuals after every row checks them.  A
    guess is kept only while it is the atom the check selects, so the run
    picks what a step-by-step run picks.  The block size doubles while the
    picks run on in storage order and falls back to 1 on a miss.  The
    basis is one `page_rows` store (_Basis), read in views of _TILE rows,
    each as wide as the widest row written into it.
    """
    check_algorithm(algorithm)
    if len(dictionary) == 0:
        raise ValueError("empty dictionary")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if algorithm == "pga_shrink" and not 0.0 < shrinkage <= 1.0:
        raise ValueError("shrinkage must lie in (0, 1]")
    s = shrinkage if algorithm == "pga_shrink" else 1.0
    if algorithm == "rga" and (variation_bound is None or not 0.0 < variation_bound):
        raise ValueError("rga requires a positive variation_bound")
    if algorithm == "oga":
        return _oga(f, dictionary, steps)[0]

    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    trace = GreedyTrace()

    gram = _GramRows(mat, dictionary.lengths)
    cols = _prefix_cols(mat, f.active_len)
    c = mat[:, :cols] @ r[:cols]  # <r, d_i> for every atom, kept current below
    if algorithm == "rga":
        c_f, approx = c.copy(), np.zeros(width)

    for n in range(1, steps + 1):
        j, sign, value = _best(c)
        atom = sign * mat[j]
        if algorithm in ("pga", "pga_shrink"):
            coeff = s * value
            r[: mat.shape[1]] -= coeff * atom
            c -= (sign * coeff) * gram[j]
        else:  # rga
            coeff = variation_bound if n == 1 else 2.0 * variation_bound / n
            if n == 1:
                approx[: mat.shape[1]] = coeff * atom
            else:
                approx *= 1.0 - 2.0 / n
                approx[: mat.shape[1]] += coeff * atom
            r = f.padded(width) - approx
            # approx_n = (1 - 2/n) approx_{n-1} + coeff d, so
            # D r_n = (2/n) D f + (1 - 2/n) D r_{n-1} - coeff D d
            c = (2.0 / n) * c_f + (1.0 - 2.0 / n) * c - (sign * coeff) * gram[j]
        rnorm = float(np.linalg.norm(r))
        if not (np.isfinite(rnorm) and np.isfinite(value)):
            raise RuntimeError(f"numeric breakdown at step {n}")
        trace.steps.append(TraceStep(n, dictionary.labels[j], sign, coeff, rnorm))
        if rnorm < RESIDUAL_HALT:
            break
    return trace
