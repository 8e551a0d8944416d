"""Online-learning support for synopses.

Section 5.2 flags online learning as a key challenge: "Unless the
synopses are kept up to date efficiently as new data becomes available,
accuracy can drop sharply in dynamic settings."  :class:`DriftDetector`
is a windowed accuracy monitor that triggers a retrain when recent
prediction quality degrades, the standard remedy when workloads or
configurations shift under the synopsis.
"""

from __future__ import annotations

from collections import deque

__all__ = ["DriftDetector"]


class DriftDetector:
    """Detect accuracy collapse over a sliding window of outcomes.

    Feed it one boolean per prediction (correct / incorrect).  Drift is
    reported when windowed accuracy falls more than ``tolerance`` below
    the best windowed accuracy seen so far — a Page-Hinkley-flavoured
    rule simple enough to audit.
    """

    def __init__(self, window: int = 20, tolerance: float = 0.25) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0.0 < tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
        self.window = window
        self.tolerance = tolerance
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._best_accuracy = 0.0

    @property
    def windowed_accuracy(self) -> float:
        if not self._outcomes:
            return 1.0
        return sum(self._outcomes) / len(self._outcomes)

    def observe(self, correct: bool) -> bool:
        """Record one outcome; return True if drift is detected."""
        self._outcomes.append(bool(correct))
        if len(self._outcomes) < self.window:
            return False
        current = self.windowed_accuracy
        self._best_accuracy = max(self._best_accuracy, current)
        return current < self._best_accuracy - self.tolerance

    def reset(self) -> None:
        """Clear state after the caller has retrained its synopsis."""
        self._outcomes.clear()
        self._best_accuracy = 0.0
