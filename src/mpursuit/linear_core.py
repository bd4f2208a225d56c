"""Dense coefficient vectors over the standard basis of (truncated) little-ell-2.

A CoeffVector stores the leading ``active_len`` coefficients of a sequence
space element; everything beyond is implicitly zero.  The vectors are
read-only containers: the program's inner products are BLAS products over
the dictionary's atom matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CoeffVector"]


@dataclass(frozen=True)
class CoeffVector:
    """Immutable dense vector; ``coeffs`` has length exactly ``active_len``."""

    coeffs: np.ndarray
    active_len: int = field(default=-1)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.float64))
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        object.__setattr__(self, "coeffs", arr)
        if self.active_len < 0:
            object.__setattr__(self, "active_len", arr.size)
        elif self.active_len != arr.size:
            raise ValueError("active_len must equal the stored length")
        arr.flags.writeable = False

    def padded(self, n: int) -> np.ndarray:
        """Coefficients extended with zeros to length n (a fresh array)."""
        if n < self.active_len:
            raise ValueError("cannot pad below active_len")
        out = np.zeros(n)
        out[: self.active_len] = self.coeffs
        return out

    def __len__(self) -> int:
        return self.active_len

