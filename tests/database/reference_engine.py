"""The pre-rewrite database tick, kept as the differential reference.

:class:`ReferenceDatabaseEngine` is a :class:`DatabaseEngine` whose
``process_tick`` is the two-pass loop the engine shipped before its
tick was rewritten: a ``_working_set_demand`` pass that fills the
per-class selectivities and the per-table traffic, then the costing
loop with builtin ``max``/``min`` calls and per-table dict caches.
The buffer-pool and auto-ANALYZE passes it calls are the pre-rewrite
method bodies too (:func:`_hit_ratios`, :func:`_auto_analyze`).  Every
fix entry point and all engine state are inherited, so one history can
drive a reference engine and a current engine side by side and every
:class:`DatabaseTickResult` field compared bitwise.

Do not optimize this file: its value is that it stays the old code.
"""

from __future__ import annotations

from repro.database.engine import DatabaseEngine, DatabaseTickResult

__all__ = ["ReferenceDatabaseEngine"]

_LOG_PAGES_PER_WRITE = 0.25


def _hit_ratios(buffers, demands: dict[str, float]) -> dict[str, float]:
    """``BufferManager.hit_ratios`` through the per-pool methods."""
    out = {}
    for name, pool in buffers.pools.items():
        demand = demands.get(name, 0.0)
        pool.observe_demand(demand)
        out[name] = pool.hit_ratio(demand)
    return out


def _auto_analyze(catalog, now: int) -> float:
    """``StatisticsCatalog.auto_analyze_and_max_staleness`` through
    ``TableStatistics.staleness``."""
    tables = catalog._tables
    threshold = catalog.auto_analyze_threshold
    enabled = catalog.auto_analyze_enabled
    worst: float | None = None
    for name, stats in catalog._stats.items():
        staleness = stats.staleness(tables[name].rows)
        if enabled and staleness > threshold:
            catalog.analyze(name, now)
            staleness = stats.staleness(tables[name].rows)
        if worst is None or staleness > worst:
            worst = staleness
    if worst is None:
        raise ValueError("no statistics recorded")
    return worst


class ReferenceDatabaseEngine(DatabaseEngine):
    """``DatabaseEngine`` with the pre-rewrite tick loop."""

    def process_tick(
        self, query_counts: dict[str, int], now: int
    ) -> DatabaseTickResult:
        """Execute one tick's query mix and report database metrics."""
        result = DatabaseTickResult()
        active = {
            name: count
            for name, count in query_counts.items()
            if count > 0 and name in self.templates
        }
        result.total_queries = sum(active.values())
        if result.total_queries == 0:
            result.buffer_hit = _hit_ratios(self.buffers, {})
            result.max_staleness = self.statistics.max_staleness()
            return result

        act_sel: dict[str, float] = {}
        reads_by_table: dict[str, float] = {}
        writes_by_table: dict[str, float] = {}
        demands = self._working_set_demand(
            active, act_sel, reads_by_table, writes_by_table
        )
        hit_ratios = _hit_ratios(self.buffers, demands)
        result.buffer_hit = hit_ratios
        data_miss = 1.0 - hit_ratios.get("data", 0.0)
        index_miss = 1.0 - hit_ratios.get("index", 0.0)

        self._last_traffic = (reads_by_table, writes_by_table)
        locks = self.locks
        if locks.any_hung:
            hung_wait_ms = locks.block_waiters(now)
            hung_tables: set[str] | tuple = locks.hung_tables()
            result.deadlocks = len(locks.detect_deadlocks())
        else:
            hung_wait_ms = 0.0
            hung_tables = ()

        info_map = self._tmpl_info
        opt = self.optimizer
        seq_page_ms = opt.seq_page_ms
        descent = opt.index_lookup_ms * (0.2 + 0.8 * index_miss)
        rand_miss_ms = opt.rand_page_ms * data_miss
        contention: dict[str, float] = {}
        act_page_ms: dict[str, float] = {}
        est_page_ms: dict[str, float] = {}
        queries_on: dict[str, int] = {}
        mult = self.service_time_multiplier
        total_time = 0.0
        per_class_ms = result.per_class_ms
        timeouts = 0
        plan_regret_ms = 0.0
        est_act_ratio_max = result.est_act_ratio_max
        index_scans = 0
        full_scans = 0
        lock_wait_ms = 0.0
        rows_grown = 0
        for name, count in active.items():
            info = info_map[name]
            table = info.table
            table_name = info.table_name
            stats = info.stats
            est_table_rows = stats.recorded_rows
            column = info.column
            est_skew = (
                1.0
                if column is None
                else stats.recorded_skew.get(column, 1.0)
            )
            est_selectivity = min(1.0, info.selectivity * est_skew)
            est_rows = max(est_table_rows * est_selectivity, 0.0)
            rows = table.rows
            act_rows = max(rows * act_sel[name], 0.0)
            cpu_ms = info.cpu_ms_per_row
            per_row = rand_miss_ms + cpu_ms + 0.0001
            est_index = descent + est_rows * per_row
            act_index = descent + act_rows * per_row
            est_pages = est_page_ms.get(table_name)
            if est_pages is None:
                est_pages = (
                    max(1.0, est_table_rows / info.rows_per_page)
                    * seq_page_ms
                    * data_miss
                )
                est_page_ms[table_name] = est_pages
            act_pages = act_page_ms.get(table_name)
            if act_pages is None:
                act_pages = (
                    max(1.0, rows / info.rows_per_page)
                    * seq_page_ms
                    * data_miss
                )
                act_page_ms[table_name] = act_pages
            est_full = est_pages + est_table_rows * cpu_ms
            act_full = act_pages + rows * cpu_ms
            if info.indexed and est_index <= est_full:
                is_index = True
                act_cost = act_index
            else:
                is_index = False
                act_cost = act_full
            optimal = min(act_full, act_index) if info.indexed else act_full
            wait_ms = contention.get(table_name)
            if wait_ms is None:
                wait_ms = self.locks.contention_wait_ms(
                    table_name,
                    reads_by_table.get(table_name, 0.0),
                    writes_by_table.get(table_name, 0.0),
                )
                contention[table_name] = wait_ms
            per_exec = act_cost * mult
            per_exec += wait_ms
            if table_name in hung_tables:
                queries_on_table = queries_on.get(table_name)
                if queries_on_table is None:
                    queries_on_table = sum(
                        c
                        for n, c in active.items()
                        if info_map[n].table_name == table_name
                    )
                    queries_on[table_name] = queries_on_table
                per_exec += hung_wait_ms / max(1, queries_on_table)
                timeouts += max(1, count // 4)

            per_class_ms[name] = per_exec
            total_time += per_exec * count
            plan_regret_ms += max(0.0, act_cost - optimal) * count
            if est_rows <= 0:
                ratio = float("inf") if act_rows > 0 else 1.0
            else:
                ratio = act_rows / est_rows
            divergence = max(ratio, 1.0 / ratio) if ratio > 0 else 1e6
            if divergence > est_act_ratio_max:
                est_act_ratio_max = min(divergence, 1e6)
            if is_index:
                index_scans += count
            else:
                full_scans += count
            lock_wait_ms += wait_ms * count
            if info.is_write:
                grown = info.rows_inserted * count
                table.grow(grown)
                rows_grown += grown
                if grown:
                    contention.pop(table_name, None)
                    act_page_ms.pop(table_name, None)

        result.timeouts = timeouts
        result.plan_regret_ms = plan_regret_ms
        result.est_act_ratio_max = est_act_ratio_max
        result.index_scans = index_scans
        result.full_scans = full_scans
        result.rows_grown = rows_grown
        result.lock_wait_ms = lock_wait_ms + hung_wait_ms
        result.mean_service_ms = total_time / result.total_queries
        offered = result.total_queries * result.mean_service_ms / 1000.0
        result.connections_in_use = int(
            min(self.max_connections * 2, max(1.0, offered * 1.2))
        )
        if result.connections_in_use >= self.max_connections:
            result.mean_service_ms *= 1.0 + (
                result.connections_in_use / self.max_connections
            )
        result.max_staleness = _auto_analyze(self.statistics, now)
        return result

    def _working_set_demand(
        self,
        active: dict[str, int],
        act_sel: dict[str, float],
        reads_by_table: dict[str, float] | None = None,
        writes_by_table: dict[str, float] | None = None,
    ) -> dict[str, float]:
        """Pages each buffer pool must hold to absorb this tick's mix."""
        data_pages = 0.0
        index_pages = 0.0
        log_pages = 0.0
        info_map = self._tmpl_info
        for name, count in active.items():
            info = info_map[name]
            table = info.table
            column = info.column
            if column is None:
                selectivity = info.selectivity
            else:
                selectivity = min(
                    1.0, info.selectivity * table.skew.get(column, 1.0)
                )
            act_sel[name] = selectivity
            act_rows = table.rows * selectivity
            rows = table.rows
            if info.indexed:
                pages = max(1, -(-rows // info.rows_per_page))
                data_pages += min(act_rows * count, float(pages))
                index_pages += max(1.0, rows / info.entries_per_page) * 0.05
            else:
                data_pages += max(1, -(-rows // info.rows_per_page))
            if info.is_write:
                log_pages += _LOG_PAGES_PER_WRITE * count
                if writes_by_table is not None:
                    table_name = info.table_name
                    writes_by_table[table_name] = (
                        writes_by_table.get(table_name, 0.0) + count
                    )
            elif reads_by_table is not None:
                table_name = info.table_name
                reads_by_table[table_name] = (
                    reads_by_table.get(table_name, 0.0) + count
                )
        return {"data": data_pages, "index": index_pages, "log": log_pages}
