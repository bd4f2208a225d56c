"""Dense coefficient vectors over the standard basis of (truncated) little-ell-2.

A CoeffVector stores the leading ``active_len`` coefficients of a sequence
space element; everything beyond is implicitly zero.  The vectors are
read-only containers: the program's inner products are BLAS products over
the dictionary's atom matrix.

`lazy_zeros` allocates the program's triangular and banded stores: dense
arrays of which only a trapezoid or a band is ever written; `page_rows`
lays such a store's rows out one to a run of whole pages.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass

import numpy as np

__all__ = ["CoeffVector", "lazy_zeros", "page_rows"]


def lazy_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Writable C-order float64 zeros of the given shape on anonymous private pages.

    A page is backed only once written; a page that is only read maps the
    kernel's shared zero page, which resident memory does not count.  The
    pages are advised out of transparent huge pages, so one written entry
    backs 4 KiB, not 2 MiB.  The mapping is released with the array.
    `tracemalloc` does not see it.
    """
    nbytes = 8 * math.prod(shape)
    buf = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel built without huge pages
            buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, dtype=np.float64, buffer=buf)


def page_rows(rows: int, width: int) -> np.ndarray:
    """`lazy_zeros` rows of `width` entries, each starting on a page boundary.

    The rows are laid out `width` rounded up to a whole page apart, and the
    first `width` entries of each are returned, a view whose rows are
    contiguous (``strides[1] == 8``) but not each other's neighbours.  A
    written prefix of k entries then backs ceil(8 k / PAGESIZE) pages, none
    shared with another row.  BLAS reads such rows through its leading
    dimension, so no product changes its order of summation.
    """
    per_page = mmap.PAGESIZE // 8
    return lazy_zeros((rows, -(-width // per_page) * per_page))[:, :width]


@dataclass(frozen=True)
class CoeffVector:
    """Immutable dense vector; ``active_len`` is the length of ``coeffs``."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.float64))
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        object.__setattr__(self, "coeffs", arr)
        arr.flags.writeable = False

    @property
    def active_len(self) -> int:
        return self.coeffs.size

    def padded(self, n: int) -> np.ndarray:
        """Coefficients extended with zeros to length n (a fresh array)."""
        if n < self.active_len:
            raise ValueError("cannot pad below active_len")
        out = np.zeros(n)
        out[: self.active_len] = self.coeffs
        return out

    def __len__(self) -> int:
        return self.active_len

