"""Tests for dataset containers and preprocessing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.learning.dataset import Dataset, MinMaxScaler


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert list(ds.classes) == [0, 1]

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3), np.array([0, 1, 0]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="feature names"):
            Dataset(np.zeros((3, 2)), np.zeros(3), feature_names=["a"])

    def test_subset_preserves_names(self):
        ds = Dataset(np.eye(3), np.array([0, 1, 2]), ["a", "b", "c"])
        sub = ds.subset(np.array([2, 0]))
        assert sub.n_samples == 2
        assert sub.feature_names == ["a", "b", "c"]
        assert list(sub.labels) == [2, 0]

    def test_append_returns_new_dataset(self):
        ds = Dataset(np.zeros((1, 2)), np.array([5]))
        grown = ds.append(np.ones(2), 7)
        assert ds.n_samples == 1  # original untouched
        assert grown.n_samples == 2
        assert grown.labels[-1] == 7

    def test_append_rejects_wrong_width(self):
        ds = Dataset(np.zeros((1, 2)), np.array([5]))
        with pytest.raises(ValueError, match="features"):
            ds.append(np.ones(3), 7)

    def test_empty_factory(self):
        ds = Dataset.empty(4)
        assert ds.n_samples == 0
        assert ds.n_features == 4
        grown = ds.append(np.arange(4), 1)
        assert grown.n_samples == 1


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self, rng):
        features = rng.uniform(-10, 10, size=(50, 3))
        scaled = MinMaxScaler().fit_transform(features)
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0

    def test_constant_feature_maps_to_zero(self):
        features = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        scaled = MinMaxScaler().fit_transform(features)
        assert np.allclose(scaled[:, 1], 0.0)

    def test_out_of_range_query_extrapolates(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == pytest.approx(2.0)

    @given(
        arrays(
            np.float64,
            (10, 3),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_transform_is_monotone(self, features):
        scaler = MinMaxScaler().fit(features)
        scaled = scaler.transform(features)
        for j in range(features.shape[1]):
            order = np.argsort(features[:, j], kind="stable")
            # Sorting by the original column must leave the scaled
            # column non-decreasing (up to floating rounding).
            assert np.all(np.diff(scaled[order, j]) >= -1e-9)
