"""Tests for the metric ring-buffer store."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitoring.timeseries import MetricStore


@pytest.fixture
def store():
    return MetricStore(["a", "b"], capacity=8)


class TestAppendWindow:
    def test_window_returns_recent_rows_oldest_first(self, store):
        for i in range(5):
            store.append(i, np.array([float(i), float(-i)]))
        window = store.window(3)
        assert np.array_equal(window[:, 0], [2.0, 3.0, 4.0])

    def test_window_clamps_to_available(self, store):
        store.append(0, np.zeros(2))
        assert store.window(10).shape == (1, 2)

    def test_ring_overwrite(self, store):
        for i in range(20):
            store.append(i, np.array([float(i), 0.0]))
        assert len(store) == 8
        assert np.array_equal(
            store.window(8)[:, 0], np.arange(12.0, 20.0)
        )

    def test_latest(self, store):
        store.append(0, np.array([1.0, 2.0]))
        store.append(1, np.array([3.0, 4.0]))
        assert np.array_equal(store.latest(), [3.0, 4.0])

    def test_latest_empty_raises(self, store):
        with pytest.raises(RuntimeError):
            store.latest()

    def test_wrong_width_rejected(self, store):
        with pytest.raises(ValueError):
            store.append(0, np.zeros(3))


class TestWindowBetween:
    def test_offset_skips_recent(self, store):
        for i in range(6):
            store.append(i, np.array([float(i), 0.0]))
        window = store.window_between_view(2, 3)
        assert np.array_equal(window[:, 0], [1.0, 2.0, 3.0])

    def test_zero_offset_equals_window(self, store):
        for i in range(6):
            store.append(i, np.array([float(i), 0.0]))
        assert np.array_equal(
            store.window_between_view(0, 4), store.window(4)
        )

    def test_offset_beyond_data_is_empty(self, store):
        store.append(0, np.zeros(2))
        assert store.window_between_view(5, 3).shape == (0, 2)


class TestSeries:
    def test_series_by_name(self, store):
        for i in range(4):
            store.append(i, np.array([float(i), float(10 * i)]))
        assert np.array_equal(store.series("b", 3), [10.0, 20.0, 30.0])

    def test_unknown_metric(self, store):
        with pytest.raises(KeyError):
            store.column_index("zzz")


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
def test_window_is_suffix_of_appended(values):
    store = MetricStore(["x"], capacity=16)
    for i, value in enumerate(values):
        store.append(i, np.array([value]))
    n = min(len(values), 16)
    window = store.window(n)[:, 0]
    assert np.array_equal(window, np.asarray(values[-n:]))


def test_validation():
    with pytest.raises(ValueError):
        MetricStore([], capacity=8)
    with pytest.raises(ValueError):
        MetricStore(["a"], capacity=1)
    store = MetricStore(["a"])
    with pytest.raises(ValueError):
        store.window(0)
    with pytest.raises(ValueError):
        store.window_between_view(-1, 5)
