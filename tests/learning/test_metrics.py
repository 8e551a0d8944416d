"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.learning.metrics import accuracy, confusion_matrix


def test_accuracy_basic():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 4])) == pytest.approx(
        2 / 3
    )


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


def test_accuracy_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        accuracy(np.array([1, 2]), np.array([1]))


def test_confusion_matrix_counts():
    y_true = np.array(["a", "a", "b", "b"])
    y_pred = np.array(["a", "b", "b", "b"])
    matrix, labels = confusion_matrix(y_true, y_pred)
    assert list(labels) == ["a", "b"]
    assert matrix[0, 0] == 1  # a -> a
    assert matrix[0, 1] == 1  # a -> b
    assert matrix[1, 1] == 2  # b -> b
    assert matrix.sum() == 4


def test_confusion_matrix_with_explicit_labels():
    matrix, labels = confusion_matrix(
        np.array([0]), np.array([0]), labels=np.array([0, 1, 2])
    )
    assert matrix.shape == (3, 3)
    assert matrix[0, 0] == 1
