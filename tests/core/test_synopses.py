"""Tests for the synopsis framework (Section 5.2's learners)."""

import numpy as np
import pytest

from repro.core.synopses import (
    KMeansSynopsis,
    NaiveBayesSynopsis,
    build_synopsis,
)

FIXES = ("fix_a", "fix_b", "fix_c")


def _training_pairs(rng, n_per_class=12):
    """Three well-separated symptom modes, one per fix."""
    centers = {"fix_a": [8, 0, 0], "fix_b": [0, 8, 0], "fix_c": [0, 0, 8]}
    pairs = []
    for kind, center in centers.items():
        for _ in range(n_per_class):
            pairs.append(
                (np.asarray(center) + rng.normal(0, 0.5, 3), kind)
            )
    rng.shuffle(pairs)
    return pairs


@pytest.fixture(
    params=["nearest_neighbor", "kmeans", "adaboost", "naive_bayes"]
)
def synopsis(request):
    return build_synopsis(request.param, FIXES)


class TestCommonContract:
    def test_cold_start_uniform(self, synopsis):
        ranked = synopsis.ranked_fixes(np.zeros(3))
        assert len(ranked) == 3
        confidences = [c for _, c in ranked]
        assert all(c == pytest.approx(1 / 3) for c in confidences)

    def test_learns_separated_modes(self, synopsis, rng):
        for symptoms, kind in _training_pairs(rng):
            synopsis.add_success(symptoms, kind)
        assert synopsis.n_samples == 36
        query = np.asarray([8.0, 0.3, -0.3])
        assert synopsis.ranked_fixes(query)[0][0] == "fix_a"

    def test_ranked_covers_all_kinds(self, synopsis, rng):
        for symptoms, kind in _training_pairs(rng, n_per_class=4):
            synopsis.add_success(symptoms, kind)
        ranked = synopsis.ranked_fixes(np.zeros(3))
        assert {kind for kind, _ in ranked} == set(FIXES)

    def test_suggest_respects_exclusion(self, synopsis, rng):
        for symptoms, kind in _training_pairs(rng, n_per_class=4):
            synopsis.add_success(symptoms, kind)
        query = np.asarray([8.0, 0.0, 0.0])
        first, _ = synopsis.suggest(query)
        second, _ = synopsis.suggest(query, exclude={first})
        assert second != first
        assert synopsis.suggest(query, exclude=set(FIXES)) is None

    def test_training_time_accumulates(self, synopsis, rng):
        for symptoms, kind in _training_pairs(rng, n_per_class=2):
            synopsis.add_success(symptoms, kind)
        assert synopsis.training_time_s >= 0.0
        assert synopsis.fit_count == synopsis.n_samples

    def test_unknown_fix_rejected(self, synopsis):
        with pytest.raises(ValueError):
            synopsis.add_success(np.zeros(3), "fix_zzz")

    def test_batch_predict(self, synopsis, rng):
        for symptoms, kind in _training_pairs(rng, n_per_class=6):
            synopsis.add_success(symptoms, kind)
        queries = np.asarray([[8.0, 0, 0], [0, 8.0, 0]])
        predictions = synopsis.predict(queries)
        assert list(predictions) == ["fix_a", "fix_b"]


class TestNaiveBayesNegatives:
    def test_failed_fix_demoted_nearby(self, rng):
        synopsis = NaiveBayesSynopsis(FIXES)
        for symptoms, kind in _training_pairs(rng):
            synopsis.add_success(symptoms, kind)
        query = np.asarray([8.0, 0.0, 0.0])
        before = dict(synopsis.ranked_fixes(query))["fix_a"]
        synopsis.observe_failure(query, "fix_a")
        after = dict(synopsis.ranked_fixes(query))["fix_a"]
        assert after < before


class TestKMeansVariants:
    def test_multicentroid_requires_rng(self):
        with pytest.raises(ValueError):
            KMeansSynopsis(FIXES, centroids_per_fix=2)

    def test_multicentroid_handles_bimodal_class(self, rng):
        synopsis = KMeansSynopsis(
            FIXES, centroids_per_fix=2, rng=np.random.default_rng(1)
        )
        # fix_a has two modes at +/-10; fix_b sits at the origin.
        for _ in range(10):
            synopsis.add_success(
                np.asarray([10.0, 0, 0]) + rng.normal(0, 0.3, 3), "fix_a"
            )
            synopsis.add_success(
                np.asarray([-10.0, 0, 0]) + rng.normal(0, 0.3, 3), "fix_a"
            )
            synopsis.add_success(rng.normal(0, 0.3, 3), "fix_b")
        assert synopsis.ranked_fixes(np.asarray([0.1, 0, 0]))[0][0] == "fix_b"


def test_build_synopsis_unknown():
    with pytest.raises(KeyError):
        build_synopsis("oracle", FIXES)
