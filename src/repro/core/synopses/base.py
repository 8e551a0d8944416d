"""Synopsis abstraction.

"Use the collected data to learn (i.e., generate or parameterize)
synopses representing the service's behavior" (Section 3).  A synopsis
here is a classifier over failure-symptom vectors whose classes are fix
kinds, with three extra obligations the paper imposes:

* incremental updates after every attempted fix (Figure 3 line 15);
* ranked suggestions with confidence estimates (Section 5.2), so the
  FixSym loop can move to the next-best fix after a failed attempt and
  approaches can be combined by confidence;
* accounting of cumulative learning time (Table 3's cost axis).
"""

from __future__ import annotations

import abc
import time
from typing import ClassVar

import numpy as np

from repro.learning.dataset import Dataset

__all__ = ["Synopsis"]


class Synopsis(abc.ABC):
    """A learned mapping from failure symptoms to ranked fixes.

    Args:
        fix_kinds: the class universe F = <F1..Fk> (Section 4.1's
            complete set of fixes).
    """

    name: ClassVar[str]

    def __init__(self, fix_kinds: tuple[str, ...]) -> None:
        if not fix_kinds:
            raise ValueError("fix_kinds must be non-empty")
        self.fix_kinds = tuple(fix_kinds)
        self.dataset: Dataset | None = None
        self.training_time_s = 0.0
        self.fit_count = 0

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return 0 if self.dataset is None else self.dataset.n_samples

    @property
    def trained(self) -> bool:
        return self.n_samples > 0

    def add_success(self, symptoms: np.ndarray, fix_kind: str) -> None:
        """Record a (symptoms, successful fix) training pair and refit.

        The refit-on-every-success policy is the paper's: "the
        clustering is redone after each failure is fixed successfully"
        — and it is what makes AdaBoost's learning time in Table 3 an
        order of magnitude larger than the instance-based synopses'.
        """
        if fix_kind not in self.fix_kinds:
            raise ValueError(f"unknown fix kind {fix_kind!r}")
        symptoms = np.asarray(symptoms, dtype=float).reshape(1, -1)
        if self.dataset is None:
            self.dataset = Dataset(
                symptoms, np.asarray([fix_kind], dtype=object)
            )
        else:
            self.dataset = self.dataset.append(symptoms[0], fix_kind)
        started = time.perf_counter()
        self._fit(self.dataset)
        self.training_time_s += time.perf_counter() - started
        self.fit_count += 1

    def observe_failure(self, symptoms: np.ndarray, fix_kind: str) -> None:
        """Record an unsuccessful fix attempt (negative sample).

        Default: ignored.  Synopses able to exploit "inaccurate,
        ambiguous, and negative data" (Section 5.2) override this.
        """

    # ------------------------------------------------------------------
    # Fleet knowledge transfer.
    # ------------------------------------------------------------------

    def merge_samples(
        self, samples: list[tuple[np.ndarray, str]]
    ) -> int:
        """Bulk-add foreign (symptoms, fix) pairs and refit once.

        Unlike :meth:`add_success` this refits a single time after the
        whole batch is appended — merging a peer's knowledge is one
        logical training event, and refitting per pair would charge
        AdaBoost-style synopses a quadratic learning bill.  Returns the
        number of samples absorbed.
        """
        if not samples:
            return 0
        # Validate the whole batch before touching the dataset, so a
        # bad sample mid-batch cannot leave a half-merged, never-refit
        # synopsis behind.
        rows: list[np.ndarray] = []
        width = None if self.dataset is None else self.dataset.n_features
        for symptoms, fix_kind in samples:
            if fix_kind not in self.fix_kinds:
                raise ValueError(f"unknown fix kind {fix_kind!r}")
            row = np.asarray(symptoms, dtype=float).reshape(1, -1)
            if width is None:
                width = row.shape[1]
            elif row.shape[1] != width:
                raise ValueError(
                    f"sample has {row.shape[1]} features, expected {width}"
                )
            rows.append(row)
        for row, (_, fix_kind) in zip(rows, samples):
            if self.dataset is None:
                self.dataset = Dataset(
                    row, np.asarray([fix_kind], dtype=object)
                )
            else:
                self.dataset = self.dataset.append(row[0], fix_kind)
        started = time.perf_counter()
        self._fit(self.dataset)
        self.training_time_s += time.perf_counter() - started
        self.fit_count += 1
        return len(samples)

    @abc.abstractmethod
    def _fit(self, dataset: Dataset) -> None:
        """Refit the underlying model on the full dataset."""

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def ranked_fixes(self, symptoms: np.ndarray) -> list[tuple[str, float]]:
        """Fix kinds with confidences, best first.

        Confidences are in ``[0, 1]`` and comparable across queries of
        the same synopsis (not necessarily across synopses).
        """

    def suggest(
        self, symptoms: np.ndarray, exclude: set[str] | None = None
    ) -> tuple[str, float] | None:
        """Best fix not in ``exclude``, or None if exhausted."""
        exclude = exclude or set()
        for fix_kind, confidence in self.ranked_fixes(symptoms):
            if fix_kind not in exclude:
                return fix_kind, confidence
        return None

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Batch top-1 prediction (accuracy evaluation on test sets)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return np.asarray(
            [self.ranked_fixes(row)[0][0] for row in features], dtype=object
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n_samples})"
