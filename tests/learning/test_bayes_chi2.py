"""Tests for naive Bayes, the TAN Bayesian network, and the chi-squared
survival function."""

import numpy as np
import pytest
from scipy import stats

from repro.learning.bayesnet import DiscreteBayesNet, discretize
from repro.learning.chi2 import chi2_sf
from repro.learning.naive_bayes import GaussianNaiveBayes


class TestGaussianNaiveBayes:
    def test_learns_separable_blobs(self, blob_data):
        features, labels = blob_data
        model = GaussianNaiveBayes().fit(features[:300], labels[:300])
        acc = np.mean(model.predict(features[300:]) == labels[300:])
        assert acc > 0.9

    def test_posterior_normalized(self, blob_data):
        features, labels = blob_data
        model = GaussianNaiveBayes().fit(features, labels)
        proba = model.predict_proba(features[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_singleton_class_has_finite_likelihood(self):
        features = np.array([[0.0, 0.0], [5.0, 5.0], [5.1, 4.9]])
        labels = np.array([0, 1, 1])
        model = GaussianNaiveBayes().fit(features, labels)
        scores = model.log_likelihood(np.array([[0.0, 0.0]]))
        assert np.all(np.isfinite(scores))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes().fit(np.empty((0, 2)), np.empty(0))


class TestDiscretize:
    def test_bins_cover_range(self, rng):
        features = rng.normal(size=(200, 3))
        binned, edges = discretize(features, n_bins=5)
        assert binned.min() >= 0
        assert binned.max() <= 4
        assert len(edges) == 3

    def test_reuse_edges_on_new_data(self, rng):
        train = rng.normal(size=(100, 2))
        _, edges = discretize(train, n_bins=4)
        binned, _ = discretize(np.array([[100.0, -100.0]]), edges=edges)
        assert binned[0, 0] == binned.max()  # beyond top edge -> last bin
        assert binned[0, 1] == 0

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            discretize(np.zeros((5, 1)), n_bins=1)


class TestDiscreteBayesNet:
    def test_learns_separable_blobs(self, blob_data):
        features, labels = blob_data
        model = DiscreteBayesNet(n_bins=6).fit(features[:300], labels[:300])
        acc = np.mean(model.predict(features[300:]) == labels[300:])
        assert acc > 0.8

    def test_tree_structure_is_a_tree(self, blob_data):
        features, labels = blob_data
        model = DiscreteBayesNet().fit(features, labels)
        parents = model.parents_
        assert parents.count(None) == 1  # exactly one root
        # No feature is its own ancestor (acyclic by construction).
        for j, parent in enumerate(parents):
            seen = set()
            while parent is not None:
                assert parent not in seen
                seen.add(parent)
                parent = parents[parent]

    def test_attribute_relevance_finds_informative(self, rng):
        informative = rng.normal(size=400)
        labels = (informative > 0).astype(int)
        noise = rng.normal(size=(400, 3))
        features = np.column_stack([noise[:, 0], informative, noise[:, 1:]])
        relevance = DiscreteBayesNet().attribute_relevance(features, labels)
        assert int(np.argmax(relevance)) == 1

    def test_posterior_normalized(self, blob_data):
        features, labels = blob_data
        model = DiscreteBayesNet().fit(features, labels)
        proba = model.predict_proba(features[:4])
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestChi2:
    def test_sf_matches_scipy(self):
        for statistic, dof in [(1.0, 1), (5.0, 3), (20.0, 8)]:
            assert chi2_sf(statistic, dof) == pytest.approx(
                stats.chi2.sf(statistic, dof), rel=1e-10
            )

    def test_sf_input_validation(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
