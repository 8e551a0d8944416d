"""Tests for k-means clustering."""

import numpy as np
import pytest

from repro.learning.distance import pairwise_euclidean
from repro.learning.kmeans import KMeans


class TestKMeans:
    def test_recovers_obvious_clusters(self, rng):
        centers = np.array([[0.0, 0.0], [20.0, 20.0], [-20.0, 20.0]])
        points = np.vstack(
            [center + rng.normal(0, 0.5, (30, 2)) for center in centers]
        )
        model = KMeans(3, rng).fit(points)
        recovered = model.centroids_[
            np.argsort(model.centroids_[:, 0], kind="stable")
        ]
        expected = centers[np.argsort(centers[:, 0], kind="stable")]
        assert np.allclose(recovered, expected, atol=1.0)

    def test_inertia_decreases_with_k(self, rng):
        points = rng.normal(size=(100, 3))
        inertia_2 = KMeans(2, np.random.default_rng(1)).fit(points).inertia_
        inertia_8 = KMeans(8, np.random.default_rng(1)).fit(points).inertia_
        assert inertia_8 < inertia_2

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            KMeans(5, rng).fit(np.zeros((3, 2)))

    def test_deterministic_given_rng_seed(self, rng):
        points = rng.normal(size=(60, 2))
        a = KMeans(4, np.random.default_rng(9)).fit(points)
        b = KMeans(4, np.random.default_rng(9)).fit(points)
        assert np.allclose(a.centroids_, b.centroids_)

    def test_predict_assigns_nearest(self, rng):
        points = rng.normal(size=(30, 2))
        model = KMeans(3, rng).fit(points)
        assignment = model.predict(points)
        distances = pairwise_euclidean(model.centroids_, points)
        assert np.array_equal(assignment, np.argmin(distances, axis=1))

    def test_duplicate_points_handled(self, rng):
        points = np.zeros((10, 2))
        model = KMeans(2, rng).fit(points)
        assert model.fitted  # empty-cluster reseeding must not loop
