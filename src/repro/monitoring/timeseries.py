"""Row-and-column time-series storage.

A bounded ring buffer over registry-ordered metric rows — "the data
collected from the service is a multidimensional row-and-column
time-series" (Section 4.2).  Windows come back as numpy arrays so the
statistics and learning layers stay vectorized.

Layout: the buffer is *mirrored* — every row is written at position
``p`` and again at ``p + capacity`` in a ``2 * capacity``-row array.
Any trailing window of up to ``capacity`` rows is then one contiguous
slice ending at ``_next + capacity``, so the baseline layer can read
windows as zero-copy views instead of gather-copies.  The doubled
write is a 2×-memory / O(row) trade for O(1) windows, and it keeps
every reduction bit-identical to the copying implementation (same
values, same C order).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MetricStore"]


class MetricStore:
    """Fixed-capacity ring buffer of metric rows.

    Args:
        names: metric names (column order).
        capacity: rows retained; older rows are overwritten.
    """

    def __init__(self, names: list[str], capacity: int = 4096) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if not names:
            raise ValueError("names must be non-empty")
        self.names = list(names)
        self.capacity = capacity
        self._index = {name: i for i, name in enumerate(self.names)}
        self._buffer = np.zeros((2 * capacity, len(names)))
        self._ticks = np.full(capacity, -1, dtype=int)
        self._next = 0
        self._count = 0
        # Monotone append counter: lets consumers pin a window by
        # absolute position and re-derive it later (while its rows are
        # still inside the ring).
        self.total_appended = 0

    def __len__(self) -> int:
        return self._count

    @property
    def n_metrics(self) -> int:
        return len(self.names)

    def column_index(self, name: str) -> int:
        """Position of a metric in every stored row."""
        if name not in self._index:
            raise KeyError(f"unknown metric {name!r}")
        return self._index[name]

    def append(self, tick: int, row: np.ndarray) -> None:
        """Record one tick's metric row."""
        row = np.asarray(row, dtype=float)
        if row.shape != (self.n_metrics,):
            raise ValueError(
                f"row shape {row.shape} != ({self.n_metrics},)"
            )
        self._buffer[self._next] = row
        self._buffer[self._next + self.capacity] = row
        self._ticks[self._next] = tick
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self.total_appended += 1

    def window_view(self, n: int) -> np.ndarray:
        """Zero-copy read-only view of the most recent ``n`` rows.

        Oldest first.  The view aliases the ring buffer: it is only
        valid until the next ``append`` and is marked non-writeable.
        Use :meth:`window` for a detached copy.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        n = min(n, self._count)
        end = self._next + self.capacity
        view = self._buffer[end - n : end]
        view.flags.writeable = False
        return view

    def window(self, n: int) -> np.ndarray:
        """The most recent ``n`` rows, oldest first (detached copy)."""
        return self.window_view(n).copy()

    def window_between_view(self, newest_offset: int, n: int) -> np.ndarray:
        """Zero-copy view of ``n`` rows ending ``newest_offset`` back.

        ``window_between_view(0, n)`` equals ``window_view(n)``; a
        positive offset skips the most recent rows — how the baseline
        window is kept clear of the (possibly contaminated) current
        window.  Same aliasing caveat as :meth:`window_view`.
        """
        if newest_offset < 0:
            raise ValueError("newest_offset must be >= 0")
        available = self._count - newest_offset
        n = min(n, max(0, available))
        if n <= 0:
            return np.empty((0, self.n_metrics))
        end = self._next + self.capacity - newest_offset
        view = self._buffer[end - n : end]
        view.flags.writeable = False
        return view

    def series(self, name: str, n: int) -> np.ndarray:
        """The most recent ``n`` values of one metric, oldest first."""
        return self.window(n)[:, self.column_index(name)]

    def latest(self) -> np.ndarray:
        """The most recent row."""
        if self._count == 0:
            raise RuntimeError("store is empty")
        return self._buffer[(self._next - 1) % self.capacity].copy()
