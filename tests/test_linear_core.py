import mmap

import numpy as np
import pytest

from mpursuit.linear_core import CoeffVector, lazy_zeros, page_rows


def test_vectors_are_immutable():
    v = CoeffVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        v.coeffs[0] = 5.0


def test_padded_is_a_fresh_zero_extended_copy():
    v = CoeffVector(np.array([1.0, -2.0, 3.0]))
    assert len(v) == v.active_len == 3
    out = v.padded(5)
    assert np.array_equal(out, [1.0, -2.0, 3.0, 0.0, 0.0])
    out[0] = 7.0
    assert v.coeffs[0] == 1.0
    with pytest.raises(ValueError, match="below active_len"):
        v.padded(2)


def test_shape_and_length_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        CoeffVector(np.zeros((2, 2)))
    v = CoeffVector(np.zeros(3))
    with pytest.raises(AttributeError):  # the length of coeffs, not a setting
        v.active_len = 2


def mmap_base(a):
    """The object at the end of a's chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("shape", [(3, 700), (5,), (0, 4), (2, 0, 3)])
def test_lazy_zeros_are_writable_c_order_float64_zeros(shape):
    a = lazy_zeros(shape)
    assert a.shape == shape and a.dtype == np.float64
    assert a.flags.c_contiguous and a.flags.writeable
    assert isinstance(mmap_base(a), mmap.mmap)
    assert not a.any()
    b = lazy_zeros(shape)
    a[...] = 1.0  # each call maps pages of its own
    assert not b.any() and np.all(a == 1.0)


@pytest.mark.parametrize("width", [1, 511, 512, 513, 900])
def test_page_rows_start_each_row_on_a_page(width):
    a = page_rows(3, width)
    assert a.shape == (3, width) and a.dtype == np.float64 and a.flags.writeable
    # each row a whole number of pages from the last, the first at a page
    assert a.strides == (-(-8 * width // mmap.PAGESIZE) * mmap.PAGESIZE, 8)
    assert a.ctypes.data % mmap.PAGESIZE == 0
    assert isinstance(mmap_base(a), mmap.mmap)
    assert not a.any()
