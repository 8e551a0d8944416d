"""Dataset containers and preprocessing utilities.

FixSym consumes "multidimensional time-series data with schema
X1, ..., Xn" (Section 4.2) where each row is the symptom vector of a
failure state and the label is the fix that repaired it.  This module
provides the small, explicit data plumbing that every synopsis shares:
a feature-matrix container, and the min-max scaling the distance-based
synopses apply so that high-magnitude counters do not dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "MinMaxScaler"]


@dataclass
class Dataset:
    """A labelled feature matrix.

    Attributes:
        features: ``(n_samples, n_features)`` float array of symptom
            vectors (the ``X1..Xn`` attributes of Section 4.2).
        labels: ``(n_samples,)`` integer array of fix identifiers.
        feature_names: optional column names, aligned with ``features``.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if len(self.labels) != len(self.features):
            raise ValueError(
                f"{len(self.features)} rows but {len(self.labels)} labels"
            )
        if self.feature_names and len(self.feature_names) != self.n_features:
            raise ValueError(
                f"{self.n_features} columns but "
                f"{len(self.feature_names)} feature names"
            )

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        """Sorted unique labels present in the dataset."""
        return np.unique(self.labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset restricted to ``indices`` (rows)."""
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)

    def append(self, row: np.ndarray, label) -> "Dataset":
        """Return a new dataset with one extra labelled row appended."""
        row = np.asarray(row, dtype=float).reshape(1, -1)
        if row.shape[1] != self.n_features and self.n_samples > 0:
            raise ValueError(
                f"row has {row.shape[1]} features, dataset has "
                f"{self.n_features}"
            )
        features = np.vstack([self.features, row])
        labels = np.concatenate([self.labels, np.asarray([label])])
        return Dataset(features, labels, self.feature_names)

    @classmethod
    def empty(cls, n_features: int, feature_names: list[str] | None = None) -> "Dataset":
        """An empty dataset with a fixed number of feature columns."""
        return cls(
            np.empty((0, n_features), dtype=float),
            np.empty((0,), dtype=int),
            feature_names or [],
        )


class MinMaxScaler:
    """Per-feature [0, 1] scaling fitted on training data.

    The normalization Weka-era instance-based learners (IBk) applied
    before Euclidean distance.  Constant features map to 0.  Query
    values outside the training range extrapolate linearly (and may
    leave [0, 1]), matching the classic behaviour.
    """

    def __init__(self) -> None:
        self.low_: np.ndarray | None = None
        self.span_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.low_ is not None

    def fit(self, features: np.ndarray) -> "MinMaxScaler":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("need a non-empty 2-D array to fit")
        self.low_ = features.min(axis=0)
        span = features.max(axis=0) - self.low_
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("MinMaxScaler used before fit()")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return (features - self.low_) / self.span_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
