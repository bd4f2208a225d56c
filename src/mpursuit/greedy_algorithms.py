"""Greedy approximation algorithms over finite symmetric dictionaries.

The pure greedy algorithm (matching pursuit), its shrinkage variant, the
orthogonal greedy algorithm, and a relaxed greedy algorithm.  A Dictionary
stores one representative per +/- atom pair; selection always considers
both signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class Dictionary:
    """Finite symmetric set of unit atoms with fast best-atom selection.

    The atoms are the rows of one matrix, held without a copy when it is
    C-order float64: atom i is a read-only view of the first lengths[i]
    entries of row i, and the rest of the row must be zero.
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
        self._matrix = rows
        self.atoms = [CoeffVector(row[:n]) for row, n in zip(rows, lengths)]
        self.labels = labels

    @classmethod
    def from_atoms(cls, atoms: Sequence[CoeffVector],
                   labels: Sequence[str] | None = None) -> "Dictionary":
        """Stack the atoms as rows, zero-padded to the longest."""
        lengths = [a.active_len for a in atoms]
        rows = np.zeros((len(lengths), max(lengths, default=0)))
        for row, a in zip(rows, atoms):
            row[: a.active_len] = a.coeffs
        return cls(rows, lengths, labels)

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
        above it: (trace, offset), the offset 0 when the line is absent."""
        trace, offset = cls(algorithm="file", shrinkage=1.0), 0
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# index_offset="):
                offset = int(line.partition("=")[2])
            elif line and not line.startswith("#") and line != cls.CSV_HEADER:
                try:
                    n, rn, atom, sign, coeff = line.split(",")
                    step = TraceStep(int(n), atom, int(sign), float(coeff), float(rn))
                except ValueError:
                    raise ValueError(f"trace CSV row {line!r} is not {cls.CSV_HEADER}") from None
                trace.steps.append(step)
        return trace, offset


def _select(matrix: np.ndarray, r: np.ndarray, live: int):
    """Index, sign and value of the best signed atom for residual r.

    r must be zero beyond its first `live` entries; only the columns of
    the matrix under that prefix, rounded up to a multiple of
    _PREFIX_ALIGN, enter the products.  np.argmax resolves exact ties at
    the lowest index; the sign defaults to +1 when the inner product is zero.
    """
    cols = min(matrix.shape[1], -(-live // _PREFIX_ALIGN) * _PREFIX_ALIGN)
    vals = matrix[:, :cols] @ r[:cols]
    j = int(np.argmax(np.abs(vals)))
    v = float(vals[j])
    sign = 1 if v >= 0.0 else -1
    return j, sign, abs(v)


def select_atom(residual: CoeffVector, dictionary: Dictionary):
    """Best signed atom: (atom_id, sign, value) with value = max <r, +/-d> >= 0."""
    if len(dictionary) == 0:
        raise ValueError("empty dictionary")
    r = residual.padded(max(dictionary.width, residual.active_len))
    j, sign, value = _select(dictionary.matrix(), r, residual.active_len)
    return dictionary.labels[j], sign, value


def check_algorithm(algorithm: str) -> None:
    """Raise ValueError unless `algorithm` is one of ALGORITHMS."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")


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
    if algorithm == "rga" and (variation_bound is None or variation_bound <= 0.0):
        raise ValueError("rga requires a positive variation_bound")

    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    trace = GreedyTrace(algorithm=algorithm, shrinkage=s)

    approx = np.zeros(width) if algorithm == "rga" else None
    basis = np.zeros((steps, width)) if algorithm == "oga" else None
    nbasis = 0
    live = f.active_len

    for n in range(1, steps + 1):
        j, sign, value = _select(mat, r, live)
        live = max(live, dictionary.atoms[j].active_len)
        atom = sign * mat[j]
        if algorithm in ("pga", "pga_shrink"):
            coeff = s * value
            r[: mat.shape[1]] -= coeff * atom
        elif algorithm == "oga":
            coeff = value  # selection inner product; the update is a projection
            cols = min(mat.shape[1], -(-live // _PREFIX_ALIGN) * _PREFIX_ALIGN)
            span, q = basis[:nbasis, :cols], basis[nbasis, :cols]  # q: the next row
            q[:] = atom[:cols]
            q -= span.T @ (span @ q)
            if not float(np.linalg.norm(q)) >= _REORTHOGONALIZE:  # of a unit atom; or NaN
                q -= span.T @ (span @ q)
            nb = float(np.linalg.norm(q))
            if nb > 1e-12:
                q /= nb
                nbasis += 1
                r[:cols] -= (r[:cols] @ q) * q
        else:  # rga
            coeff = variation_bound if n == 1 else 2.0 * variation_bound / n
            if n == 1:
                approx[: mat.shape[1]] = coeff * atom
            else:
                approx *= 1.0 - 2.0 / n
                approx[: mat.shape[1]] += coeff * atom
            r = f.padded(width) - approx
        rnorm = float(np.linalg.norm(r))
        if not (np.isfinite(rnorm) and np.isfinite(value)):
            raise RuntimeError(f"numeric breakdown at step {n}")
        trace.steps.append(TraceStep(n, dictionary.labels[j], sign, coeff, rnorm))
        trace.atom_indices.append(j)
        if rnorm < RESIDUAL_HALT:
            break
    return trace
