import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfc_sim import params

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(*values):
    return np.array(values, dtype=np.float64)


def vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(
        lambda vals: np.array(vals, dtype=np.float64))


def test_l2_dist_sq_examples():
    assert params.l2_dist_sq(vec(0, 0), vec(3, 4)) == 25.0
    v = vec(1.5, -2.5, 0.25)
    assert params.l2_dist_sq(v, v) == 0.0
    assert params.l2_dist_sq(vec(1), vec(-1)) == 4.0


def test_mean_examples():
    assert np.array_equal(params.mean([vec(1, 3), vec(3, 5)]), vec(2, 4))
    v = vec(0.7, -0.1)
    assert np.array_equal(params.mean([v]), v)
    assert np.array_equal(params.mean([v, -v]), np.zeros(2))


def test_dimension_mismatch_messages_name_both_dims():
    with pytest.raises(ValueError, match="2 vs 3"):
        params.l2_dist_sq(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ValueError, match="2 vs 3"):
        params.mean([vec(1, 2), vec(1, 2, 3)])


def test_mean_empty_rejected():
    with pytest.raises(ValueError):
        params.mean([])


@given(st.lists(vectors(3), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_mean_permutation_within_tolerance(vs, rnd):
    shuffled = list(vs)
    rnd.shuffle(shuffled)
    assert np.allclose(params.mean(vs), params.mean(shuffled), rtol=1e-12, atol=1e-9)


@given(vectors(5), vectors(5))
def test_l2_symmetry(a, b):
    assert params.l2_dist_sq(a, b) == params.l2_dist_sq(b, a)


@given(vectors(4), vectors(4), vectors(4))
def test_l2_quasi_triangle(a, b, c):
    lhs = params.l2_dist_sq(a, c)
    rhs = 2.0 * (params.l2_dist_sq(a, b) + params.l2_dist_sq(b, c))
    assert lhs <= rhs * (1 + 1e-12) + 1e-9


def test_wire_format_layout():
    v = vec(1.0, -0.0)
    blob = params.to_bytes(v)
    assert blob[:8] == struct.pack("<Q", 2)
    assert blob[8:16] == struct.pack("<d", 1.0)
    assert blob[16:24] == struct.pack("<d", -0.0)
    assert len(blob) == 24
    with pytest.raises(ValueError, match="1-D"):
        params.to_bytes(np.zeros((2, 2)))


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=16).map(
    lambda vals: np.array(vals, dtype=np.float64)))
def test_wire_roundtrip_bit_exact(v):
    back = params.from_bytes(params.to_bytes(v))
    assert back.tobytes() == v.tobytes()


def test_from_bytes_errors():
    with pytest.raises(ValueError):
        params.from_bytes(b"\x00" * 4)
    blob = params.to_bytes(vec(1.0, 2.0))
    with pytest.raises(ValueError):
        params.from_bytes(blob + b"\x00")


def test_digest_distinguishes_values_and_negative_zero():
    assert params.digest(vec(1.0, 2.0)) == params.digest(vec(1.0, 2.0))
    assert params.digest(vec(1.0, 2.0)) != params.digest(vec(2.0, 1.0))
    assert params.digest(vec(0.0)) != params.digest(vec(-0.0))
