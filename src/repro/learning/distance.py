"""Distance functions used by the instance-based synopses.

Nearest neighbor maps a new failure point to the closest previously
observed point (Section 5.2, synopsis 1); k-means maps it to the
closest cluster representative (synopsis 2).  Both reduce to the
pairwise distances implemented here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["euclidean", "manhattan", "pairwise_euclidean"]


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def manhattan(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance between two vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


def pairwise_euclidean(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between query rows and point rows.

    Args:
        points: ``(n, d)`` array.
        queries: ``(m, d)`` array.

    Returns:
        ``(m, n)`` array where entry ``[i, j]`` is the distance from
        ``queries[i]`` to ``points[j]``.  Uses the expanded quadratic
        form so the whole computation stays vectorized.  Squares of
        values above about 1e154 overflow that form; the entries it
        leaves non-finite are recomputed from scaled differences.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if points.shape[1] != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: points d={points.shape[1]}, "
            f"queries d={queries.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = np.sum(points**2, axis=1)
        q_sq = np.sum(queries**2, axis=1)
        cross = queries @ points.T
        sq = q_sq[:, None] + p_sq[None, :] - 2.0 * cross
    # Numerical noise can push tiny distances below zero.
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq)
    rows, cols = np.nonzero(~np.isfinite(dist))
    if rows.size:
        dist[rows, cols] = _scaled_distances(queries[rows], points[cols])
    return dist


def _scaled_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``|a - b|`` computed without overflow.

    The halved differences cannot overflow, and dividing them by their
    largest magnitude bounds every square by 1; only a distance beyond
    the largest double comes out as ``inf``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = a / 2.0 - b / 2.0
        scale = np.abs(half).max(axis=1)
        scale[scale == 0.0] = 1.0  # identical rows: every difference is 0
        unit = half / scale[:, None]
        return 2.0 * scale * np.sqrt(np.sum(unit * unit, axis=1))
