"""Tests for distance functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.learning.distance import euclidean, manhattan, pairwise_euclidean

_vec = arrays(np.float64, 5, elements=st.floats(-1e4, 1e4, allow_nan=False))


def test_euclidean_known_value():
    assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)


def test_manhattan_known_value():
    assert manhattan([1, 2], [4, -2]) == pytest.approx(7.0)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        euclidean([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        manhattan([1], [1, 2])
    with pytest.raises(ValueError):
        pairwise_euclidean(np.zeros((2, 3)), np.zeros((2, 4)))


def test_pairwise_matches_pointwise(rng):
    points = rng.normal(size=(6, 4))
    queries = rng.normal(size=(3, 4))
    matrix = pairwise_euclidean(points, queries)
    assert matrix.shape == (3, 6)
    for i in range(3):
        for j in range(6):
            assert matrix[i, j] == pytest.approx(
                euclidean(queries[i], points[j]), abs=1e-9
            )


@given(_vec, _vec)
def test_euclidean_symmetry(a, b):
    assert euclidean(a, b) == pytest.approx(euclidean(b, a), rel=1e-9)


@given(_vec)
def test_euclidean_identity(a):
    assert euclidean(a, a) == 0.0


@given(_vec, _vec, _vec)
def test_triangle_inequality(a, b, c):
    assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6


def test_pairwise_no_negative_from_rounding(rng):
    # Near-identical points can push the quadratic form negative.
    point = rng.normal(size=(1, 8)) * 1e8
    matrix = pairwise_euclidean(point, point + 1e-9)
    assert matrix[0, 0] >= 0.0


def _expanded(points, queries):
    """The expanded quadratic form alone, as ``pairwise_euclidean``
    computed every entry before it recomputed the non-finite ones."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = np.sum(points**2, axis=1)
        q_sq = np.sum(queries**2, axis=1)
        cross = queries @ points.T
        sq = q_sq[:, None] + p_sq[None, :] - 2.0 * cross
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)


def _scaled_reference(query, point):
    """``|query - point|`` from the differences; ``math.hypot`` scales
    them, so only a distance beyond the largest double is ``inf``."""
    return math.hypot(*(float(q) - float(p) for q, p in zip(query, point)))


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 4))
    element = st.floats(-1e300, 1e300, allow_nan=False)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    points = draw(arrays(np.float64, (n, d), elements=element))
    queries = draw(arrays(np.float64, (m, d), elements=element))
    return points, queries


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_point_sets())
@example((np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([[1e200, 0.0]])))
@example((np.array([[1e160]]), np.array([[-1e160]])))
@example((np.array([[1e200, 1.0], [1e200, 0.0]]), np.array([[1e200, 0.0]])))
# The distance itself exceeds the largest double.
@example((np.array([[1.7e308, 0.0]]), np.array([[-1.7e308, 0.0]])))
def test_pairwise_large_magnitudes(point_sets):
    points, queries = point_sets
    got = pairwise_euclidean(points, queries)
    assert not np.isnan(got).any()
    expanded = _expanded(points, queries)
    finite = np.isfinite(expanded)
    # Entries the expanded form gets finite keep its bits.
    assert got[finite].tobytes() == expanded[finite].tobytes()
    for i, j in zip(*np.nonzero(~finite)):
        want = _scaled_reference(queries[i], points[j])
        if math.isfinite(want):
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got[i, j] == math.inf
