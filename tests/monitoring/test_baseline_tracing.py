"""Tests for baseline windows, symptom vectors, and call tracing."""

import numpy as np
import pytest

from repro.monitoring.baseline import BaselineModel
from repro.monitoring.collectors import MetricCollector
from repro.monitoring.timeseries import MetricStore
from repro.monitoring.tracing import CallMatrixTracer


def _filled_store(warm_service, ticks=140):
    collector = MetricCollector()
    store = MetricStore(collector.names)
    tracer = None
    for _ in range(ticks):
        snapshot = warm_service.step()
        store.append(snapshot.tick, collector.collect(snapshot))
        if tracer is None:
            tracer = CallMatrixTracer(
                snapshot.caller_names, snapshot.callee_names
            )
        tracer.observe(snapshot.call_matrix)
    return collector, store, tracer


class TestBaselineModel:
    def test_healthy_symptoms_are_small(self, warm_service):
        _, store, _ = _filled_store(warm_service)
        baseline = BaselineModel(store, 120, 8)
        baseline.fit_baseline()
        symptoms = baseline.symptom_vector()
        assert np.mean(np.abs(symptoms)) < 1.5

    def test_deviation_registers_in_zscores(self, warm_service):
        collector, store, _ = _filled_store(warm_service)
        baseline = BaselineModel(store, 120, 8)
        baseline.fit_baseline()
        warm_service.app.leak_mb_per_tick = 60.0
        for _ in range(12):
            snapshot = warm_service.step()
            store.append(snapshot.tick, collector.collect(snapshot))
        symptoms = baseline.symptom_vector()
        heap_z = symptoms[collector.names.index("app.heap_used_mb")]
        assert heap_z > 3.0

    def test_full_vector_is_z_then_raw(self, warm_service):
        collector, store, _ = _filled_store(warm_service)
        baseline = BaselineModel(store, 120, 8)
        baseline.fit_baseline()
        full = baseline.full_feature_vector()
        n = collector.n_metrics
        assert full.shape == (2 * n,)
        assert np.array_equal(full[:n], baseline.symptom_vector())
        assert np.array_equal(full[n:], baseline.current_means())
        names = baseline.full_feature_names()
        assert names[0].startswith("z.")
        assert names[n].startswith("raw.")

    def test_requires_enough_history(self):
        store = MetricStore(["a"], capacity=64)
        baseline = BaselineModel(store, 32, 4)
        for i in range(6):
            store.append(i, np.array([1.0]))
        with pytest.raises(RuntimeError):
            baseline.fit_baseline()

    def test_window_validation(self):
        store = MetricStore(["a"])
        with pytest.raises(ValueError):
            BaselineModel(store, 8, 8)
        with pytest.raises(ValueError):
            BaselineModel(store, 8, 0)


class TestCallMatrixTracer:
    def test_wedged_bean_is_most_anomalous_caller(self, warm_service):
        _, _, tracer = _filled_store(warm_service)
        tracer.freeze_baseline()
        warm_service.app.container.set_deadlocked("ItemBean")
        for _ in range(10):
            snapshot = warm_service.step()
            tracer.observe(snapshot.call_matrix)
        suspect, score = tracer.most_anomalous_caller()
        assert suspect == "ItemBean"
        assert score > 5.0

    def test_throwing_bean_flagged_by_volume_or_split(self, warm_service):
        _, _, tracer = _filled_store(warm_service)
        tracer.freeze_baseline()
        warm_service.app.container.set_exception_rate("BidBean", 0.6)
        for _ in range(10):
            snapshot = warm_service.step()
            tracer.observe(snapshot.call_matrix)
        _, p_value, volume = tracer.caller_anomaly("BidBean")
        assert volume < -0.2 or p_value < 0.05

    def test_healthy_service_not_flagged(self, warm_service):
        _, _, tracer = _filled_store(warm_service)
        tracer.freeze_baseline()
        for _ in range(10):
            snapshot = warm_service.step()
            tracer.observe(snapshot.call_matrix)
        _, score = tracer.most_anomalous_caller()
        assert score < 20.0

    def test_shape_mismatch_rejected(self, warm_service):
        _, _, tracer = _filled_store(warm_service)
        with pytest.raises(ValueError):
            tracer.observe(np.zeros((2, 2)))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CallMatrixTracer(["s"], ["a"], baseline_window=4, current_window=4)
