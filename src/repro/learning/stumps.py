"""The weighted split search of boosting's weak learners.

The paper's best synopsis is "Adaboost ... an ensemble learning
technique that can produce accurate predictions by combining many
simple and moderately inaccurate synopses (or weak learners)"
(Section 5.2, synopsis 3).  Its weak learners are shallow trees
(:mod:`repro.learning.tree`); each node picks one feature and one
threshold, the split a decision stump [14] makes.

Splits minimize weighted Gini impurity rather than misclassification:
with many balanced classes, misclassification error ties across most
candidate splits (it only counts majority labels), and tie-breaking by
feature order yields systematically poor greedy trees; Gini is
sensitive to the full class distribution on each side.
"""

from __future__ import annotations

import numpy as np

__all__ = ["best_gini_split"]

# Candidate thresholds per feature are capped so that fitting stays
# O(n_features * n_thresholds) vectorized passes even on large windows.
_MAX_THRESHOLDS = 48


def best_gini_split(
    features: np.ndarray,
    class_weights: np.ndarray,
) -> tuple[float, int | None, float]:
    """Best (feature, threshold) split by weighted Gini impurity.

    Args:
        features: ``(n, d)`` feature matrix.
        class_weights: ``(n, k)`` one-hot sample weights (row i carries
            sample i's weight in its class column).

    Returns:
        ``(impurity, feature, threshold)``; ``feature`` is None when no
        feature has two distinct values.
    """
    n_samples, n_features = features.shape
    totals = class_weights.sum(axis=0)
    total_weight = totals.sum()
    best_impurity = np.inf
    best_feature: int | None = None
    best_threshold = 0.0

    for feature in range(n_features):
        column = features[:, feature]
        distinct = np.unique(column)
        if distinct.size < 2:
            continue
        thresholds = (distinct[:-1] + distinct[1:]) / 2.0
        if thresholds.size > _MAX_THRESHOLDS:
            keep = np.unique(
                np.linspace(0, thresholds.size - 1, _MAX_THRESHOLDS).astype(int)
            )
            thresholds = thresholds[keep]

        order = np.argsort(column, kind="stable")
        cum = np.cumsum(class_weights[order], axis=0)
        positions = np.searchsorted(column[order], thresholds, side="right")
        # positions >= 1 because thresholds exceed the column minimum.
        left = cum[positions - 1]
        left_weight = left.sum(axis=1)
        right = totals[None, :] - left
        right_weight = total_weight - left_weight
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = left_weight - (left**2).sum(axis=1) / np.where(
                left_weight > 0, left_weight, 1.0
            )
            gini_right = right_weight - (right**2).sum(axis=1) / np.where(
                right_weight > 0, right_weight, 1.0
            )
        impurity = gini_left + gini_right
        j = int(np.argmin(impurity))
        if impurity[j] < best_impurity - 1e-12:
            best_impurity = float(impurity[j])
            best_feature = feature
            best_threshold = float(thresholds[j])

    return best_impurity, best_feature, best_threshold
