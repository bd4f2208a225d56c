import numpy as np
import pytest

from mpursuit.linear_core import CoeffVector


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
    with pytest.raises(ValueError, match="active_len"):
        CoeffVector(np.zeros(3), active_len=2)
