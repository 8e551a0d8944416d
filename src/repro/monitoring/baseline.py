"""Baseline behaviour and symptom vectors.

Section 4.3.1: anomaly detection "analyz[es] data ... from the last Nb
minutes to build a baseline", then monitors "the last Nc minutes" for
deviation, with the caveats the paper lists — contamination (the
baseline must come from healthy periods), and the Nc trade-off between
false positives (short windows) and false negatives (long windows).

The symptom vector produced here is the per-metric z-score of the
current window against the frozen baseline.  Z-scoring matters for the
learning synopses: it removes the workload-level component common to
all metrics, leaving the *shape* of the deviation — which is what
distinguishes failure types from each other.
"""

from __future__ import annotations

import numpy as np

from repro.monitoring.timeseries import MetricStore

__all__ = ["BaselineModel"]

# Floor on baseline standard deviations, so constant-at-baseline
# metrics (e.g. deadlock counts, normally all zero) still produce
# bounded z-scores when they move.
_STD_FLOOR = 1e-3
# Z-scores are clipped to keep single wild metrics from dominating
# distance-based synopses: beyond ~6 sigma a deviation is simply
# "broken", and preserving its magnitude only drowns the moderate
# signals that discriminate between failure types.
_Z_CLIP = 6.0


class BaselineModel:
    """Frozen healthy-baseline statistics plus current-window symptoms.

    Args:
        store: the metric time series.
        baseline_window: Nb — ticks used to fit the baseline.
        current_window: Nc — ticks summarized into the symptom vector
            (Nc << Nb per Example 2).
    """

    def __init__(
        self,
        store: MetricStore,
        baseline_window: int = 120,
        current_window: int = 8,
    ) -> None:
        if current_window < 1:
            raise ValueError("current_window must be >= 1")
        if baseline_window <= current_window:
            raise ValueError(
                "baseline_window must exceed current_window "
                f"({baseline_window} <= {current_window})"
            )
        self.store = store
        self.baseline_window = baseline_window
        self.current_window = current_window
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        # Lazy-fit bookkeeping: (absolute end position, row count) of
        # the most recent fit request whose moments have not been
        # computed yet.
        self._pending: tuple[int, int] | None = None

    @property
    def ready(self) -> bool:
        return self._pending is not None or self._mean is not None

    def fit_baseline(self) -> None:
        """Freeze baseline statistics from the trailing Nb window.

        Callers are responsible for invoking this during a *healthy*
        period — the paper's contamination caveat: "the baseline
        behavior may need to be captured when the service is not
        experiencing significant failures."

        The fit is *lazy*: the healing harness refits on every healthy
        tick but reads the moments only when a failure event is built,
        so this records which rows form the baseline (by absolute
        position in the store) and defers the mean/std reduction to the
        first read.  Materialization reduces the exact same rows the
        eager fit would have, so the numbers are bit-identical.
        (A cumulative rolling mean/var was evaluated here and rejected:
        running sums over non-integer metrics accumulate rounding
        drift, breaking that guarantee.)
        """
        available = min(
            self.baseline_window,
            max(0, len(self.store) - self.current_window),
        )
        if available < max(8, self.baseline_window // 4):
            raise RuntimeError(
                f"only {available} rows available for a "
                f"{self.baseline_window}-tick baseline"
            )
        self._pending = (
            self.store.total_appended - self.current_window,
            available,
        )

    def _materialize(self) -> None:
        """Compute the deferred moments for the last recorded fit."""
        if self._pending is None:
            return
        end, n_rows = self._pending
        newest_offset = self.store.total_appended - end
        if newest_offset + n_rows > self.store.capacity:
            raise RuntimeError(
                "baseline window evicted from the metric store before "
                "it was read (fit is too stale)"
            )
        rows = self.store.window_between_view(newest_offset, n_rows)
        self._mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        self._std = np.maximum(std, _STD_FLOOR)
        self._pending = None

    def symptom_vector(self) -> np.ndarray:
        """Z-scores of current-window means against the baseline."""
        if not self.ready:
            raise RuntimeError("baseline not fitted")
        self._materialize()
        current = self.store.window_view(self.current_window)
        if len(current) == 0:
            raise RuntimeError("no current-window data")
        z = (current.mean(axis=0) - self._mean) / self._std
        return np.clip(z, -_Z_CLIP, _Z_CLIP)

    def current_means(self) -> np.ndarray:
        """Raw current-window means (no baseline normalization).

        Raw levels carry the workload-intensity nuisance that
        baseline-relative z-scores remove; learning synopses trained on
        the full ``[z | raw]`` vector see the measurement reality the
        paper's Weka-era learners faced.
        """
        current = self.store.window_view(self.current_window)
        if len(current) == 0:
            raise RuntimeError("no current-window data")
        return current.mean(axis=0)

    def full_feature_vector(self) -> np.ndarray:
        """Concatenated ``[z-scores | raw means]`` symptom vector."""
        return np.concatenate([self.symptom_vector(), self.current_means()])

    def deviation_score(self) -> float:
        """Aggregate anomaly magnitude (mean |z| over metrics)."""
        return float(np.mean(np.abs(self.symptom_vector())))

    def feature_names(self) -> list[str]:
        """Names for the z-score symptom vector."""
        return [f"z.{name}" for name in self.store.names]

    def full_feature_names(self) -> list[str]:
        """Names for the concatenated ``[z | raw]`` vector."""
        return self.feature_names() + [
            f"raw.{name}" for name in self.store.names
        ]
