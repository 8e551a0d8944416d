"""AdaBoost synopsis (Figure 4, synopsis 3).

"Adaboost is an ensemble learning technique that can produce accurate
predictions by combining many simple and moderately inaccurate
synopses (or weak learners). ... Notice that the ensemble synopsis ...
converges to good accuracy with much less training samples than the
other synopses.  ... However, Adaboost's superior accuracy comes at a
significant cost in terms of running time."

The cost comes from the refit-per-success policy: boosting restarts
from scratch on the grown dataset after every healed failure, so the
cumulative learning time grows quadratically in the number of fixes —
the 1740 s vs. 90 s gap of Table 3.
"""

from __future__ import annotations

import numpy as np

from repro.core.synopses.base import Synopsis
from repro.learning.adaboost import AdaBoostClassifier
from repro.learning.dataset import Dataset

__all__ = ["AdaBoostSynopsis"]


class AdaBoostSynopsis(Synopsis):
    """SAMME.R-boosted depth-3 trees over failure symptoms.

    Args:
        fix_kinds: class universe.
        n_estimators: the paper's single AdaBoost parameter (60 was
            "the optimal value in our setting"; the ablation bench
            sweeps it).
    """

    name = "adaboost"

    def __init__(
        self, fix_kinds: tuple[str, ...], n_estimators: int = 60
    ) -> None:
        super().__init__(fix_kinds)
        self.n_estimators = n_estimators
        self._model: AdaBoostClassifier | None = None

    def _fit(self, dataset: Dataset) -> None:
        model = AdaBoostClassifier(n_estimators=self.n_estimators)
        model.fit(dataset.features, dataset.labels)
        self._model = model

    def ranked_fixes(self, symptoms: np.ndarray) -> list[tuple[str, float]]:
        if self._model is None:
            p = 1.0 / len(self.fix_kinds)
            return [(kind, p) for kind in self.fix_kinds]
        symptoms = np.asarray(symptoms, dtype=float).reshape(1, -1)
        proba = self._model.predict_proba(symptoms)[0]
        scores = dict(zip(self._model.classes_, proba))
        ranked = sorted(
            ((kind, float(scores.get(kind, 0.0))) for kind in self.fix_kinds),
            key=lambda pair: -pair[1],
        )
        return ranked
