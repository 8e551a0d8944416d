"""k-means clustering: Lloyd's algorithm with k-means++ seeding.

The paper's k-means synopsis (Section 5.2, synopsis 2) keeps one
cluster per fix, whose representative is the class mean; that
construction lives in :class:`repro.core.synopses.KMeansSynopsis`.
:class:`KMeans` splits one fix's points into several sub-clusters for
the synopsis's multi-centroid ablation.
"""

from __future__ import annotations

import numpy as np

from repro.learning.distance import pairwise_euclidean

__all__ = ["KMeans"]


class KMeans:
    """Lloyd's algorithm with k-means++ initialization.

    Args:
        n_clusters: number of clusters ``k``.
        max_iter: Lloyd iteration cap.
        tol: inertia improvement below which iteration stops.
        rng: numpy generator for the k-means++ seeding (required; there
            is no hidden global randomness anywhere in this package).
    """

    def __init__(
        self,
        n_clusters: int,
        rng: np.random.Generator,
        max_iter: int = 100,
        tol: float = 1e-6,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self._rng = rng
        self.centroids_: np.ndarray | None = None
        self.inertia_: float = np.inf

    @property
    def fitted(self) -> bool:
        return self.centroids_ is not None

    def fit(self, features: np.ndarray) -> "KMeans":
        features = np.asarray(features, dtype=float)
        n_samples = len(features)
        if n_samples < self.n_clusters:
            raise ValueError(
                f"{n_samples} samples cannot form {self.n_clusters} clusters"
            )
        centroids = self._kmeanspp_init(features)
        previous_inertia = np.inf
        for _ in range(self.max_iter):
            distances = pairwise_euclidean(centroids, features)
            assignment = np.argmin(distances, axis=1)
            inertia = float(
                np.sum(distances[np.arange(n_samples), assignment] ** 2)
            )
            new_centroids = centroids.copy()
            for j in range(self.n_clusters):
                members = features[assignment == j]
                if len(members) > 0:
                    new_centroids[j] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point.
                    farthest = int(
                        np.argmax(distances[np.arange(n_samples), assignment])
                    )
                    new_centroids[j] = features[farthest]
            centroids = new_centroids
            if previous_inertia - inertia < self.tol:
                break
            previous_inertia = inertia
        self.centroids_ = centroids
        distances = pairwise_euclidean(centroids, features)
        assignment = np.argmin(distances, axis=1)
        self.inertia_ = float(
            np.sum(distances[np.arange(n_samples), assignment] ** 2)
        )
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Index of the nearest centroid for each row."""
        if not self.fitted:
            raise RuntimeError("KMeans used before fit()")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        distances = pairwise_euclidean(self.centroids_, features)
        return np.argmin(distances, axis=1)

    def _kmeanspp_init(self, features: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids apart."""
        n_samples = len(features)
        first = int(self._rng.integers(n_samples))
        centroids = [features[first]]
        for _ in range(1, self.n_clusters):
            distances = pairwise_euclidean(np.vstack(centroids), features)
            closest_sq = np.min(distances, axis=1) ** 2
            total = closest_sq.sum()
            if total <= 0.0:
                # All points coincide with existing centroids.
                centroids.append(features[int(self._rng.integers(n_samples))])
                continue
            probabilities = closest_sq / total
            choice = int(self._rng.choice(n_samples, p=probabilities))
            centroids.append(features[choice])
        return np.vstack(centroids)
