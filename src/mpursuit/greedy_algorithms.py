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

from .linear_core import CoeffVector

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


class Dictionary:
    """Finite symmetric set of unit atoms with fast best-atom selection.

    The atoms are the rows of one matrix, held without a copy when it is
    C-order float64: atom i is a read-only view of the first lengths[i]
    entries of row i, and the rest of the row must be zero.  `lengths` is
    kept as a read-only int array.
    """

    def __init__(self, rows: np.ndarray, lengths: Sequence[int],
                 labels: Sequence[str] | None = None):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if labels is None:
            labels = [f"a{i}" for i in range(len(rows))]
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

    algorithm: str
    shrinkage: float
    steps: list[TraceStep] = field(default_factory=list)
    atom_indices: list[int] = field(default_factory=list)

    @property
    def residual_norms(self) -> np.ndarray:
        return np.array([s.residual_norm for s in self.steps])

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
        above it: (trace, offset), the offset 0 when the line is absent.  An
        offset that is not an integer >= 0 raises ValueError."""
        trace, offset = cls(algorithm="file", shrinkage=1.0), 0
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# index_offset="):
                value = line.partition("=")[2]
                if not value.isdecimal():
                    raise ValueError(f"trace line {line!r} is not an index offset >= 0")
                offset = int(value)
            elif line and not line.startswith("#") and line != cls.CSV_HEADER:
                try:
                    n, rn, atom, sign, coeff = line.split(",")
                    step = TraceStep(int(n), atom, int(sign), float(coeff), float(rn))
                except ValueError:
                    raise ValueError(f"trace CSV row {line!r} is not {cls.CSV_HEADER}") from None
                trace.steps.append(step)
        return trace, offset


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
    """OGA's orthonormal rows, packed in tiles of _TILE rows.

    A tile is as wide as the live prefix of its rows needs, with _TILE
    columns to spare when it opens: on a run whose live prefix grows by one
    entry a step the tile never has to widen.  Products read no zero corner
    outside a tile, and the rows of the open tile not yet filled are never
    written.
    """

    def __init__(self, width: int):
        self.width = width
        self.tiles: list[tuple] = []  # (array (_TILE, room), rows filled, live columns)
        self.size = 0

    def views(self) -> list[np.ndarray]:
        return [t[:rows, :cols] for t, rows, cols in self.tiles]

    def append(self, rows: np.ndarray) -> None:
        """Add orthonormal rows, each zero beyond its own live prefix."""
        cols = rows.shape[1]
        while len(rows):
            if not self.tiles or self.tiles[-1][1] == _TILE:
                self.tiles.append((np.zeros((_TILE, 0)), 0, 0))
            tile, filled, live = self.tiles[-1]
            if tile.shape[1] < cols:  # the live prefix outgrew the tile
                wide = np.zeros((_TILE, min(self.width, cols + _TILE)))
                wide[:filled, :live] = tile[:filled, :live]
                tile = wide
            k = min(_TILE - filled, len(rows))
            tile[filled:filled + k, :cols] = rows[:k]
            self.tiles[-1] = (tile, filled + k, max(live, cols))
            self.size += k
            rows = rows[k:]


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
    trace = GreedyTrace(algorithm="oga", shrinkage=1.0)
    basis = _Basis(mat.shape[1])
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
            trace.atom_indices.append(jj)
        if kept[acc - 1]:
            basis.append(block[:kept[acc - 1], :cols[acc - 1]])
        live = lives[acc - 1]
        if acc < m:  # a miss: back to the residual after the last accepted row
            r[:cols[-1]] = resid[acc - 1]
        elif last:
            return trace, r
        m = min(2 * m, _LOOKAHEAD) if acc == m and nxt[0] == j + m else 1
        j, sign, value = nxt


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
    (Mallat & Zhang, 1993).  The Gram matrix G = D D^T is formed once per
    run, #atoms^2 floats (35 MB for the 2101 atoms of an n_max=2500
    instance), and c starts as D f over the live prefix.  Each step then
    updates c in O(#atoms) from the selected atom's row of G, where a
    direct selection multiplies the whole dictionary by r.  The residual
    is still updated explicitly, so every residual norm comes from r.

    oga cannot update c that way: its update is a projection onto the
    span, so c would need D times each new basis vector.  It advances in
    blocks instead (_oga): the block's first atom is the exact selection,
    the next up to _LOOKAHEAD - 1 atoms in storage order are guesses, and
    one product of D with the residuals after every row checks them.  A
    guess is kept only while it is the atom the check selects, so the run
    picks what a step-by-step run picks.  The block size doubles while the
    picks run on in storage order and falls back to 1 on a miss.  The
    basis is packed in tiles of _TILE rows that read only their rows' live
    prefix.
    """
    check_algorithm(algorithm)
    if len(dictionary) == 0:
        raise ValueError("empty dictionary")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if algorithm == "pga_shrink":
        if not 0.0 < shrinkage <= 1.0:
            raise ValueError("shrinkage must lie in (0, 1]")
        s = shrinkage
    else:
        s = 1.0
    if algorithm == "rga" and (variation_bound is None or not 0.0 < variation_bound):
        raise ValueError("rga requires a positive variation_bound")
    if algorithm == "oga":
        return _oga(f, dictionary, steps)[0]

    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    trace = GreedyTrace(algorithm=algorithm, shrinkage=s)

    gram = mat @ mat.T  # A @ A.T: numpy hands it to BLAS syrk
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
        trace.atom_indices.append(j)
        if rnorm < RESIDUAL_HALT:
            break
    return trace
