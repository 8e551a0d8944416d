"""Tests for the Gini split search and shallow trees (boosting weak learners)."""

import numpy as np
import pytest

from repro.learning.stumps import best_gini_split
from repro.learning.tree import DecisionTree


def _onehot(labels, weights, classes):
    out = np.zeros((len(labels), len(classes)))
    index = {c: j for j, c in enumerate(classes)}
    for i, (label, w) in enumerate(zip(labels, weights)):
        out[i, index[label]] = w
    return out


class TestGiniSplit:
    def test_finds_perfect_split(self):
        features = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        onehot = _onehot(labels, np.ones(4), np.array([0, 1]))
        impurity, feature, threshold = best_gini_split(features, onehot)
        assert feature == 0
        assert 1.0 < threshold < 10.0
        assert impurity == pytest.approx(0.0)

    def test_ignores_constant_features(self):
        features = np.column_stack(
            [np.full(4, 7.0), np.array([0.0, 1.0, 10.0, 11.0])]
        )
        labels = np.array([0, 0, 1, 1])
        onehot = _onehot(labels, np.ones(4), np.array([0, 1]))
        _, feature, _ = best_gini_split(features, onehot)
        assert feature == 1

    def test_all_constant_returns_none(self):
        onehot = _onehot(np.array([0, 1]), np.ones(2), np.array([0, 1]))
        _, feature, _ = best_gini_split(np.ones((2, 3)), onehot)
        assert feature is None

    def test_weights_shift_the_split(self):
        # Three points of class 1 at x=5 get tiny weight: the split
        # should favor separating the heavy points.
        features = np.array([[0.0], [1.0], [5.0], [5.1], [5.2], [10.0]])
        labels = np.array([0, 0, 1, 1, 1, 1])
        heavy = np.array([10.0, 10.0, 0.01, 0.01, 0.01, 10.0])
        onehot = _onehot(labels, heavy, np.array([0, 1]))
        _, _, threshold = best_gini_split(features, onehot)
        assert 1.0 < threshold < 10.0


class TestDecisionTree:
    def test_depth_one_equals_stump_behaviour(self):
        features = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        tree = DecisionTree(max_depth=1).fit(
            features, labels, np.ones(4), np.array([0, 1])
        )
        assert list(tree.predict(features)) == [0, 0, 1, 1]

    def test_conjunction_needs_depth_two(self, rng):
        # "lock waits high AND timeouts present" style conjunctions are
        # the failure-signature structure depth-2 trees exist for; a
        # single split cannot express them.
        features = rng.uniform(-1, 1, size=(400, 2))
        labels = ((features[:, 0] > 0) & (features[:, 1] > 0)).astype(int)
        classes = np.array([0, 1])
        shallow = DecisionTree(max_depth=1).fit(
            features, labels, np.ones(400), classes
        )
        deep = DecisionTree(max_depth=2).fit(
            features, labels, np.ones(400), classes
        )
        acc_shallow = np.mean(shallow.predict(features) == labels)
        acc_deep = np.mean(deep.predict(features) == labels)
        assert acc_deep > 0.95
        assert acc_deep > acc_shallow

    def test_proba_rows_sum_to_one(self, blob_data):
        features, labels = blob_data
        tree = DecisionTree(max_depth=3).fit(
            features, labels, np.ones(len(labels)), np.unique(labels)
        )
        proba = tree.predict_proba(features[:20])
        assert proba.shape == (20, len(np.unique(labels)))
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba > 0)  # Laplace smoothing keeps support

    def test_pure_node_stops_splitting(self):
        tree = DecisionTree(max_depth=5).fit(
            np.arange(4.0).reshape(4, 1),
            np.zeros(4, dtype=int),
            np.ones(4),
            np.array([0]),
        )
        assert tree._root.feature is None  # root stayed a leaf

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTree(leaf_smoothing=0.0)
