"""Evaluation metrics for synopsis accuracy.

Figure 4 plots "the accuracy of the current synopsis computed on a
fixed test set comprising 1000 failure states (symptoms) and correct
fixes"; these helpers compute that accuracy plus the confusion
structure used in the extended analyses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "confusion_matrix"]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of zero predictions")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Confusion matrix over the union of observed labels.

    Returns:
        ``(matrix, labels)`` where ``matrix[i, j]`` counts samples with
        true label ``labels[i]`` predicted as ``labels[j]``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(y_true, y_pred):
        matrix[index[t], index[p]] += 1
    return matrix, labels
