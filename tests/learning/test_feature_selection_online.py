"""Tests for correlation ranking and drift detection."""

import numpy as np
import pytest

from repro.learning.feature_selection import correlation_ranking
from repro.learning.online import DriftDetector


class TestCorrelationRanking:
    def test_informative_column_ranks_first(self, rng):
        indicator = rng.normal(size=300)
        features = np.column_stack(
            [
                rng.normal(size=300),
                indicator * 2.0 + rng.normal(0, 0.1, 300),
                rng.normal(size=300),
            ]
        )
        scores = correlation_ranking(features, indicator)
        assert int(np.argmax(scores)) == 1
        assert scores[1] > 0.9

    def test_constant_column_scores_zero(self, rng):
        features = np.column_stack([np.ones(50), rng.normal(size=50)])
        scores = correlation_ranking(features, rng.normal(size=50))
        assert scores[0] == 0.0

    def test_anticorrelation_counts(self, rng):
        indicator = rng.normal(size=200)
        features = (-indicator).reshape(-1, 1)
        assert correlation_ranking(features, indicator)[0] == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation_ranking(np.zeros((3, 2)), np.zeros(4))


class TestDriftDetector:
    def test_no_drift_on_steady_accuracy(self):
        detector = DriftDetector(window=10, tolerance=0.3)
        assert not any(detector.observe(True) for _ in range(50))

    def test_detects_accuracy_collapse(self):
        detector = DriftDetector(window=10, tolerance=0.3)
        for _ in range(20):
            detector.observe(True)
        fired = [detector.observe(False) for _ in range(10)]
        assert any(fired)

    def test_reset_clears_state(self):
        detector = DriftDetector(window=5, tolerance=0.2)
        for _ in range(10):
            detector.observe(True)
        detector.reset()
        assert detector.windowed_accuracy == 1.0
        assert not detector.observe(False)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window=1)
        with pytest.raises(ValueError):
            DriftDetector(tolerance=0.0)
