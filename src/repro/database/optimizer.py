"""Cost-based query optimizer.

The optimizer chooses between an index scan and a full table scan using
*estimated* cardinalities from the statistics catalog, while execution
pays for *actual* cardinalities.  With fresh statistics the two agree
and plans are near-optimal; with stale statistics the optimizer can
pick an index plan whose true cost is far above the sequential scan it
rejected — the "suboptimal query plan" failure of Table 1 and
Example 5.  Every plan choice yields ``est_rows`` and ``act_rows``, the
pair of attributes (``Xest``, ``Xact``) the paper's example FixSym
pattern monitors.
"""

from __future__ import annotations

from repro.database.queries import QueryTemplate
from repro.database.schema import Table
from repro.database.statistics import StatisticsCatalog

__all__ = ["Optimizer"]


class Optimizer:
    """Two-plan cost model with buffer-aware I/O pricing.

    Args:
        statistics: source of estimated cardinalities.
        seq_page_ms: cost of reading one page sequentially when it
            misses the buffer pool.
        rand_page_ms: cost of one random page read on a miss (index
            probes pay this per matched row).
        index_lookup_ms: fixed B-tree descent cost.
    """

    def __init__(
        self,
        statistics: StatisticsCatalog,
        seq_page_ms: float = 0.08,
        rand_page_ms: float = 0.45,
        index_lookup_ms: float = 0.15,
    ) -> None:
        self.statistics = statistics
        self.seq_page_ms = seq_page_ms
        self.rand_page_ms = rand_page_ms
        self.index_lookup_ms = index_lookup_ms

    def plan_numbers(
        self,
        template: QueryTemplate,
        table: Table,
        act_selectivity: float,
        data_miss_ratio: float,
        index_miss_ratio: float,
    ) -> tuple[bool, float, float, float, float, float]:
        """Choose and cost a plan for one execution of ``template``.

        Args:
            template: the query class.
            table: live table object (source of actual cardinality).
            act_selectivity: the predicate's actual selectivity on
                ``table`` (``table.actual_selectivity``), passed in
                because the engine already computed it for the
                working-set model this tick.
            data_miss_ratio: buffer miss ratio for data pages in
                ``[0, 1]``; scales I/O cost.
            index_miss_ratio: buffer miss ratio for index pages.

        Returns ``(is_index_scan, est_rows, act_rows, est_cost_ms,
        act_cost_ms, optimal_cost_ms)``: the rows the optimizer
        *expected* the predicate to match and the rows it *actually*
        matches, the estimated cost that drove the choice, the true
        cost of the chosen plan and the true cost of the best plan in
        hindsight.  The engine's tick loop inlines this computation;
        ``tests/database/test_tick_differential.py`` pins the two
        together.
        """
        stats = self.statistics.statistics_for(template.table)
        est_table_rows = stats.recorded_rows
        est_selectivity = min(
            1.0,
            template.selectivity * stats.estimated_skew(template.column),
        )
        est_rows = max(est_table_rows * est_selectivity, 0.0)
        act_rows = max(table.rows * act_selectivity, 0.0)

        # Index scan: B-tree descent plus one random data-page fetch
        # per row.  Neither depends on the cardinality, so compute
        # them once.
        descent = self.index_lookup_ms * (0.2 + 0.8 * index_miss_ratio)
        per_row = (
            self.rand_page_ms * data_miss_ratio
            + template.cpu_ms_per_row
            + 0.0001
        )
        est_index = descent + est_rows * per_row
        act_index = descent + act_rows * per_row

        # Full scan: sequential read of every page plus per-row CPU, for
        # the estimated and the actual cardinality.
        rows_per_page = max(1, table.PAGE_BYTES // table.row_bytes)
        cpu_ms = template.cpu_ms_per_row
        est_full = (
            max(1.0, est_table_rows / rows_per_page)
            * self.seq_page_ms
            * data_miss_ratio
            + est_table_rows * cpu_ms
        )
        act_full = (
            max(1.0, table.rows / rows_per_page)
            * self.seq_page_ms
            * data_miss_ratio
            + table.rows * cpu_ms
        )

        if template.indexed and est_index <= est_full:
            is_index = True
            est_cost, act_cost = est_index, act_index
        else:
            is_index = False
            est_cost, act_cost = est_full, act_full
        optimal = min(act_full, act_index) if template.indexed else act_full
        return is_index, est_rows, act_rows, est_cost, act_cost, optimal
