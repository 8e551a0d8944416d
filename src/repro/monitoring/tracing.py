"""EJB call-matrix tracing — the invasive "path" data.

Example 2: "Suppose the data from the application-server tier contains
attributes representing the number of times an EJB of one type calls an
EJB of another type. ... analyze data about EJB method invocations from
the last Nb minutes to build a baseline that captures how calls from
each EJB type are split across the other EJB types.  Then, the EJB
method invocations from the last Nc minutes can be monitored to
determine when the behavior of one or more EJBs deviates significantly
from the baseline behavior."

This tracer accumulates per-tick call matrices into baseline and
current windows and exposes exactly those two views per caller.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.learning.chi2 import chi2_sf, chi2_statistic

__all__ = ["CallMatrixTracer"]


class CallMatrixTracer:
    """Sliding baseline/current windows over EJB call matrices.

    Args:
        caller_names: row labels (servlet pseudo-caller first).
        callee_names: column labels (bean names).
        baseline_window: Nb ticks.
        current_window: Nc ticks, Nc << Nb.
    """

    def __init__(
        self,
        caller_names: list[str],
        callee_names: list[str],
        baseline_window: int = 120,
        current_window: int = 8,
    ) -> None:
        if current_window < 1:
            raise ValueError("current_window must be >= 1")
        if baseline_window <= current_window:
            raise ValueError("baseline_window must exceed current_window")
        self.caller_names = list(caller_names)
        self.callee_names = list(callee_names)
        self.baseline_window = baseline_window
        self.current_window = current_window
        shape = (len(caller_names), len(callee_names))
        self._history: deque[np.ndarray] = deque(
            maxlen=baseline_window + current_window
        )
        self._shape = shape
        self._frozen_baseline: np.ndarray | None = None
        # Rolling sums over the history deque: everything in a call
        # matrix is an integer-valued count, and integer sums in
        # float64 are exact in any order (far below 2**53), so
        # maintaining them incrementally is bit-identical to re-summing
        # the window — which the old implementation did on every
        # baseline freeze, at O(window) matrix additions per tick.
        self._total_sum = np.zeros(shape)
        self._recent_sum = np.zeros(shape)  # last `current_window` ticks

    def observe(self, call_matrix: np.ndarray) -> None:
        """Record one tick's caller-by-callee invocation counts."""
        matrix = np.asarray(call_matrix, dtype=float)
        if matrix.shape != self._shape:
            raise ValueError(
                f"matrix shape {matrix.shape} != {self._shape}"
            )
        history = self._history
        if len(history) == history.maxlen:
            self._total_sum -= history[0]  # about to be evicted
        leaving = (
            history[-self.current_window]
            if len(history) >= self.current_window
            else None
        )
        history.append(matrix)
        self._total_sum += matrix
        self._recent_sum += matrix
        if leaving is not None:
            self._recent_sum -= leaving

    @property
    def ready(self) -> bool:
        return len(self._history) >= self.current_window + max(
            8, self.baseline_window // 4
        )

    def freeze_baseline(self) -> None:
        """Pin the current baseline window (contamination guard)."""
        self._frozen_baseline = self._baseline_sum()

    def _baseline_sum(self) -> np.ndarray:
        if self._frozen_baseline is not None:
            return self._frozen_baseline
        if len(self._history) <= self.current_window:
            # Short history: the baseline falls back to everything.
            return self._total_sum.copy()
        return self._total_sum - self._recent_sum

    def _current_sum(self) -> np.ndarray:
        return self._recent_sum.copy()

    def baseline_split(self, caller: str) -> np.ndarray:
        """Baseline distribution of one caller's calls across callees."""
        i = self.caller_names.index(caller)
        row = self._baseline_sum()[i]
        total = row.sum()
        return row / total if total > 0 else row

    def current_counts(self, caller: str) -> np.ndarray:
        """Current-window call counts from one caller."""
        i = self.caller_names.index(caller)
        return self._current_sum()[i]

    def callers_with_traffic(self) -> list[str]:
        """Callers with nonzero baseline traffic (testable rows)."""
        sums = self._baseline_sum().sum(axis=1)
        return [
            name for name, total in zip(self.caller_names, sums) if total > 0
        ]

    def caller_anomaly(self, caller: str) -> tuple[float, float, float]:
        """How abnormal one caller's outbound behaviour is.

        Returns:
            ``(chi2_statistic, p_value, volume_log_ratio)`` where the
            chi-squared test compares the caller's current call *split*
            to the baseline split (Example 2's test), and the volume
            ratio is ``log((current + 1) / (expected + 1))`` per tick —
            a deadlocked bean's outbound volume collapses (large
            negative), regardless of split, which the chi-squared test
            alone cannot see (zero current counts carry no split
            information).
        """
        statistic, dof, volume_log_ratio = self._anomaly(caller)
        p_value = chi2_sf(statistic, dof) if dof else 1.0
        return statistic, p_value, volume_log_ratio

    def _anomaly(self, caller: str) -> tuple[float, int, float]:
        """``caller_anomaly`` with the degrees of freedom in place of
        the p-value, which ranking never reads."""
        i = self.caller_names.index(caller)
        baseline_row = self._baseline_sum()[i]
        current_row = self._current_sum()[i]
        statistic, dof = chi2_statistic(current_row, baseline_row)

        baseline_ticks = max(1, len(self._history) - self.current_window)
        expected_per_tick = baseline_row.sum() / baseline_ticks
        current_per_tick = current_row.sum() / max(1, self.current_window)
        volume_log_ratio = math.log(
            (current_per_tick + 1.0) / (expected_per_tick + 1.0)
        )
        return statistic, dof, volume_log_ratio

    def most_anomalous_caller(self) -> tuple[str | None, float]:
        """The bean misbehaving most as a caller, with its score.

        Score blends split deviation (chi-squared statistic) and
        outbound-volume anomaly; only real beans are considered (the
        servlet pseudo-caller reflects workload, not component health).
        """
        best_name, best_score = None, 0.0
        for caller in self.callers_with_traffic():
            if caller not in self.callee_names:
                continue  # skip the servlet pseudo-caller
            statistic, _, volume = self._anomaly(caller)
            score = max(statistic, 40.0 * abs(volume))
            if score > best_score:
                best_name, best_score = caller, score
        return best_name, best_score

    def inbound_baseline(self, callee: str) -> float:
        """Baseline per-tick inbound call volume for one bean."""
        j = self.callee_names.index(callee)
        window = len(self._history) - self.current_window
        if window <= 0:
            window = len(self._history)
        return float(self._baseline_sum()[:, j].sum() / max(1, window))

    def inbound_current(self, callee: str) -> float:
        """Current-window per-tick inbound call volume for one bean."""
        j = self.callee_names.index(callee)
        return float(
            self._current_sum()[:, j].sum() / max(1, self.current_window)
        )
