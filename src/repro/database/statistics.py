"""Optimizer statistics with staleness.

"Database servers maintain statistics about stored data in order to
choose good execution plans for queries.  Unless these statistics are
updated in a timely fashion, they can become out of date under heavy
transactional workloads; causing failures due to suboptimal query
plans." (Example 5.)  The catalog records the row count *as of the last
ANALYZE*; the gap between recorded and actual cardinality is exactly
the ``Xest`` / ``Xact`` divergence FixSym keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.database.schema import Table

__all__ = ["StatisticsCatalog", "TableStatistics"]


@dataclass(slots=True)
class TableStatistics:
    """Statistics snapshot for one table.

    Attributes:
        table_name: subject table.
        recorded_rows: cardinality recorded at the last ANALYZE.
        recorded_skew: per-column selectivity multipliers captured at
            the last ANALYZE (the histogram-shaped part of statistics).
        analyzed_at: simulation tick of the last ANALYZE.
    """

    table_name: str
    recorded_rows: int
    recorded_skew: dict[str, float] = field(default_factory=dict)
    analyzed_at: int = 0

    def estimated_skew(self, column: str | None) -> float:
        """Selectivity multiplier the optimizer believes for a column."""
        if column is None:
            return 1.0
        return self.recorded_skew.get(column, 1.0)

    def staleness(self, actual_rows: int) -> float:
        """Ratio of actual to recorded cardinality (1.0 = fresh).

        Values far above 1 mean the optimizer believes the table is
        much smaller than it is — the precondition for choosing an
        index-heavy plan that touches far more rows than estimated.
        """
        if self.recorded_rows <= 0:
            return float("inf") if actual_rows > 0 else 1.0
        return actual_rows / self.recorded_rows


class StatisticsCatalog:
    """Statistics for every table, with auto-ANALYZE policy.

    Args:
        tables: the live schema (statistics track these objects).
        auto_analyze_threshold: staleness ratio beyond which the
            background policy refreshes a table's statistics, mimicking
            automated statistics collection in commercial systems [1].
            The stale-statistics fault disables this policy.
    """

    def __init__(
        self, tables: dict[str, Table], auto_analyze_threshold: float = 1.3
    ) -> None:
        if auto_analyze_threshold <= 1.0:
            raise ValueError(
                "auto_analyze_threshold must be > 1.0, got "
                f"{auto_analyze_threshold}"
            )
        self._tables = tables
        self.auto_analyze_threshold = auto_analyze_threshold
        self.auto_analyze_enabled = True
        self._stats = {
            name: TableStatistics(name, table.rows)
            for name, table in tables.items()
        }
        self.analyze_count = 0

    def statistics_for(self, table_name: str) -> TableStatistics:
        """The statistics snapshot for one table."""
        if table_name not in self._stats:
            raise KeyError(f"no statistics for table {table_name!r}")
        return self._stats[table_name]

    def staleness(self, table_name: str) -> float:
        """Actual/recorded cardinality ratio for one table."""
        stats = self.statistics_for(table_name)
        return stats.staleness(self._tables[table_name].rows)

    def max_staleness(self) -> float:
        """Worst staleness across the schema — a one-number health signal."""
        return max(self.staleness(name) for name in self._stats)

    def analyze(self, table_name: str, now: int) -> None:
        """Refresh statistics for one table (the UPDATE STATISTICS fix).

        Captures both cardinality and the current data-distribution
        skew, so freshly analyzed statistics estimate correctly even
        after a distribution shift.
        """
        stats = self.statistics_for(table_name)
        table = self._tables[table_name]
        stats.recorded_rows = table.rows
        stats.recorded_skew = dict(table.skew)
        stats.analyzed_at = now
        self.analyze_count += 1

    def analyze_all(self, now: int) -> None:
        """ANALYZE every table (the UPDATE STATISTICS fix's scope)."""
        for name in self._stats:
            self.analyze(name, now)

    def auto_analyze_and_max_staleness(self, now: int) -> float:
        """Background auto-analyze, then the worst staleness.

        The policy refreshes any table past the threshold.  Its trigger
        is DML volume (row-count change), as in commercial
        auto-statistics facilities [1] — which means the policy is
        *blind to data-distribution drift* that arrives without bulk
        row growth.  That blind spot is exactly why the Table 1
        "suboptimal query plan" failure persists until the explicit
        UPDATE STATISTICS fix runs.  It does nothing when disabled (as
        the stale-statistics fault's insert-burst variant does).

        Returns :meth:`max_staleness` as it stands after the refresh.
        The per-tick engine path needs both, so one pass does both:
        analyzing one table only changes that table's own staleness,
        so folding the post-analyze value into the running maximum
        inside the loop equals analyzing first and taking the maximum
        after.
        """
        tables = self._tables
        threshold = self.auto_analyze_threshold
        enabled = self.auto_analyze_enabled
        worst: float | None = None
        for name, stats in self._stats.items():
            # TableStatistics.staleness, inlined (runs every tick).
            rows = tables[name].rows
            recorded = stats.recorded_rows
            if recorded <= 0:
                staleness = float("inf") if rows > 0 else 1.0
            else:
                staleness = rows / recorded
            if enabled and staleness > threshold:
                self.analyze(name, now)
                staleness = stats.staleness(tables[name].rows)
            if worst is None or staleness > worst:
                worst = staleness
        if worst is None:
            raise ValueError("no statistics recorded")
        return worst
