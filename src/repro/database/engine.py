"""Per-tick database execution engine.

The engine receives a query mix (executions per query class this tick)
from the application tier and returns the database-side metrics the
monitoring layer records: per-class service times, buffer hit ratios,
lock waits, deadlocks, plan-quality signals (``Xest``/``Xact``
divergence, regret versus the hindsight-optimal plan), and timeout
errors caused by hung transactions.  All Table 1 database fixes are
exposed as methods so fix objects stay thin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.database.bufferpool import BufferManager
from repro.database.locks import LockManager
from repro.database.optimizer import Optimizer
from repro.database.queries import QueryTemplate, rubis_query_templates
from repro.database.schema import Table, rubis_schema
from repro.database.statistics import StatisticsCatalog

__all__ = ["DatabaseEngine", "DatabaseTickResult"]

# Bytes per index entry, for index working-set estimates.
_INDEX_ENTRY_BYTES = 20
# Log pages written per write statement.
_LOG_PAGES_PER_WRITE = 0.25


@dataclass(frozen=True, slots=True)
class _TemplateInfo:
    """Per-template invariants hoisted out of the per-tick loop.

    Everything here is fixed at engine construction (``row_bytes`` and
    the template fields never change at runtime); only ``table.rows``,
    skew, and statistics evolve, and those are read live each tick.
    """

    template: QueryTemplate
    table: Table
    table_name: str
    rows_per_page: int
    entries_per_page: int
    is_write: bool
    rows_inserted: int
    indexed: bool
    column: str | None
    selectivity: float
    cpu_ms_per_row: float
    # The live TableStatistics object: the catalog mutates these in
    # place (ANALYZE rewrites fields, never the object), so a direct
    # reference stays valid for the engine's lifetime.
    stats: object = None


@dataclass(slots=True)
class DatabaseTickResult:
    """Database metrics for one simulation tick."""

    per_class_ms: dict[str, float] = field(default_factory=dict)
    mean_service_ms: float = 0.0
    total_queries: int = 0
    buffer_hit: dict[str, float] = field(default_factory=dict)
    lock_wait_ms: float = 0.0
    deadlocks: int = 0
    timeouts: int = 0
    est_act_ratio_max: float = 1.0
    plan_regret_ms: float = 0.0
    full_scans: int = 0
    index_scans: int = 0
    rows_grown: int = 0
    max_staleness: float = 1.0
    connections_in_use: int = 0


class DatabaseEngine:
    """A MySQL-shaped database tier driven by analytical models.

    Args:
        tables: schema; defaults to the RUBiS schema.
        templates: query classes; defaults to the RUBiS templates.
        buffer_pages: total buffer memory in pages.
        max_connections: connection-pool ceiling; offered concurrency
            beyond it queues and inflates service time.
    """

    def __init__(
        self,
        tables: dict[str, Table] | None = None,
        templates: dict[str, QueryTemplate] | None = None,
        buffer_pages: int = 64_000,
        max_connections: int = 150,
    ) -> None:
        self.tables = tables if tables is not None else rubis_schema()
        self.templates = (
            templates if templates is not None else rubis_query_templates()
        )
        self.statistics = StatisticsCatalog(self.tables)
        self.optimizer = Optimizer(self.statistics)
        self.buffers = BufferManager(buffer_pages)
        self.locks = LockManager(self.tables)
        self.max_connections = max_connections
        # Multiplier applied to all service times; restart clears it.
        # Faults may raise it to model degradation not tied to one
        # component (e.g. a bad configuration push).
        self.service_time_multiplier = 1.0
        self.restart_count = 0
        # Most recent (reads, writes) per table, for contention-aware
        # fix targeting.
        self._last_traffic: tuple[dict[str, float], dict[str, float]] = (
            {},
            {},
        )
        # Per-template invariants for the hot tick loop (only for
        # templates whose table exists in the schema; others keep the
        # original lazy KeyError behaviour).
        self._tmpl_info: dict[str, _TemplateInfo] = {}
        for name, template in self.templates.items():
            table = self.tables.get(template.table)
            if table is None:
                continue
            self._tmpl_info[name] = _TemplateInfo(
                template=template,
                table=table,
                table_name=template.table,
                rows_per_page=max(1, table.PAGE_BYTES // table.row_bytes),
                entries_per_page=table.PAGE_BYTES // _INDEX_ENTRY_BYTES,
                is_write=template.is_write,
                rows_inserted=template.rows_inserted,
                indexed=template.indexed,
                column=template.column,
                selectivity=template.selectivity,
                cpu_ms_per_row=template.cpu_ms_per_row,
                stats=self.statistics.statistics_for(template.table),
            )
        # The same invariants as flat tuples for the tick loop, which
        # unpacks one per class instead of reading the fields one by
        # one.  ``min(1.0, selectivity * 1.0)`` is the clamped
        # selectivity of a class whose column carries no skew.
        self._plans = {
            name: (
                info.table,
                info.table_name,
                info.stats,
                info.rows_per_page,
                info.entries_per_page,
                info.is_write,
                info.rows_inserted,
                info.indexed,
                info.column,
                info.selectivity,
                min(1.0, info.selectivity * 1.0),
                info.cpu_ms_per_row,
            )
            for name, info in self._tmpl_info.items()
        }

    # ------------------------------------------------------------------
    # Tick execution.
    # ------------------------------------------------------------------

    def process_tick(
        self, query_counts: dict[str, int], now: int
    ) -> DatabaseTickResult:
        """Execute one tick's query mix and report database metrics.

        Two passes over the active classes (positive count, known
        template), in ``query_counts`` order.  The first sums the
        buffer pools' working-set demand and the per-table read/write
        traffic at the tick's starting row counts; the second prices
        every class against the resulting hit ratios, growing tables
        as write classes execute, so later classes on a table see the
        rows earlier ones inserted.

        Builtin ``max``/``min`` calls are written as the conditionals
        they evaluate to (``max(a, b)`` is ``b if b > a else a`` and
        ``min(a, b)`` is ``b if b < a else a``, NaN included), and
        every float expression keeps its operand order, so the results
        are bit-identical to calling the builtins.  Plan costing is
        :meth:`Optimizer.plan_numbers` inlined and contention is
        :meth:`LockManager.contention_wait_ms` inlined: any change to
        one must be mirrored in the other.
        ``tests/database/test_tick_differential.py`` pins the tick to
        both methods and to a reference two-pass loop built on them.
        """
        plans_get = self._plans.get
        reads_by_table: dict[str, float] = {}
        writes_by_table: dict[str, float] = {}
        reads_get = reads_by_table.get
        writes_get = writes_by_table.get
        # (name, count, plan, actual selectivity) per active class.
        work = []
        total_queries = 0
        data_pages = 0.0
        index_pages = 0.0
        log_pages = 0.0
        for name, count in query_counts.items():
            if not count > 0:
                continue
            plan = plans_get(name)
            if plan is None:
                if name in self.templates:
                    # A template whose table is not in the schema.
                    raise KeyError(name)
                continue
            (table, table_name, _stats, rows_per_page, entries_per_page,
             is_write, _inserted, indexed, column, selectivity,
             clamped, _cpu) = plan
            if column is None:
                act_sel = selectivity
            else:
                skew = table.skew
                if skew:
                    act_sel = selectivity * skew.get(column, 1.0)
                    if not act_sel < 1.0:
                        act_sel = 1.0
                else:
                    act_sel = clamped
            rows = table.rows
            pages = -(-rows // rows_per_page)
            if not pages > 1:
                pages = 1
            if indexed:
                # Random row fetches touch roughly one distinct page
                # per row until the whole table is hot.
                fetched = rows * act_sel * count
                pages = float(pages)
                data_pages += pages if pages < fetched else fetched
                entries = rows / entries_per_page
                index_pages += (entries if entries > 1.0 else 1.0) * 0.05
            else:
                data_pages += pages
            if is_write:
                log_pages += _LOG_PAGES_PER_WRITE * count
                writes_by_table[table_name] = (
                    writes_get(table_name, 0.0) + count
                )
            else:
                reads_by_table[table_name] = (
                    reads_get(table_name, 0.0) + count
                )
            total_queries += count
            work.append((name, count, plan, act_sel))

        if total_queries == 0:
            return DatabaseTickResult(
                total_queries=total_queries,
                buffer_hit=self.buffers.hit_ratios({}),
                max_staleness=self.statistics.max_staleness(),
            )
        hit_ratios = self.buffers.hit_ratios(
            {"data": data_pages, "index": index_pages, "log": log_pages}
        )
        data_miss = 1.0 - hit_ratios.get("data", 0.0)
        index_miss = 1.0 - hit_ratios.get("index", 0.0)
        self._last_traffic = (reads_by_table, writes_by_table)

        locks = self.locks
        deadlocks = 0
        if locks.any_hung:
            hung_wait_ms = locks.block_waiters(now)
            hung_tables: set[str] | tuple = locks.hung_tables()
            deadlocks = len(locks.detect_deadlocks())
        else:
            # No hung transactions: nothing to block on, no possible
            # wait-for cycles (identical to the three calls above).
            hung_wait_ms = 0.0
            hung_tables = ()
        queries_on: dict[str, int] = {}
        hold_ms = locks.HOLD_MS
        # Contention numerator ``writes * (reads + writes)`` of every
        # table written this tick; tables without writes never wait.
        pressure_get = {
            table_name: writes * (reads_get(table_name, 0.0) + writes)
            for table_name, writes in writes_by_table.items()
        }.get

        opt = self.optimizer
        seq_page_ms = opt.seq_page_ms
        # Shared cost terms: descent and the random-I/O price do not
        # depend on the query class's cardinality.
        descent = opt.index_lookup_ms * (0.2 + 0.8 * index_miss)
        rand_miss_ms = opt.rand_page_ms * data_miss
        mult = self.service_time_multiplier
        per_class_ms: dict[str, float] = {}
        total_time = 0.0
        timeouts = 0
        plan_regret_ms = 0.0
        est_act_ratio_max = 1.0
        index_scans = 0
        full_scans = 0
        lock_wait_ms = 0.0
        rows_grown = 0
        for name, count, plan, act_sel in work:
            (table, table_name, stats, rows_per_page, _entries, is_write,
             rows_inserted, indexed, column, selectivity, clamped,
             cpu_ms) = plan
            est_table_rows = stats.recorded_rows
            recorded_skew = stats.recorded_skew
            if column is not None and recorded_skew:
                est_sel = selectivity * recorded_skew.get(column, 1.0)
                if not est_sel < 1.0:
                    est_sel = 1.0
            else:
                est_sel = clamped
            est_rows = est_table_rows * est_sel
            if est_rows < 0.0:
                est_rows = 0.0
            rows = table.rows
            act_rows = rows * act_sel
            if act_rows < 0.0:
                act_rows = 0.0
            per_row = rand_miss_ms + cpu_ms + 0.0001
            act_index = descent + act_rows * per_row
            scan_pages = rows / rows_per_page
            act_full = (
                (scan_pages if scan_pages > 1.0 else 1.0)
                * seq_page_ms
                * data_miss
                + rows * cpu_ms
            )
            if indexed:
                scan_pages = est_table_rows / rows_per_page
                est_full = (
                    (scan_pages if scan_pages > 1.0 else 1.0)
                    * seq_page_ms
                    * data_miss
                    + est_table_rows * cpu_ms
                )
                is_index = descent + est_rows * per_row <= est_full
                act_cost = act_index if is_index else act_full
                optimal = act_index if act_index < act_full else act_full
            else:
                is_index = False
                act_cost = optimal = act_full

            pressure = pressure_get(table_name)
            if pressure is None:
                wait_ms = 0.0
            else:
                # Birthday-style collisions on the table's hot blocks
                # at its current size.
                pages = -(-rows // rows_per_page)
                hot_blocks = (
                    (pages if pages > 1 else 1)
                    * table.hot_fraction
                    * table.partitions
                )
                if not hot_blocks > 1.0:
                    hot_blocks = 1.0
                collision = pressure / (hot_blocks * 3200.0)
                wait_ms = (collision if collision < 1.0 else 1.0) * hold_ms
            per_exec = act_cost * mult + wait_ms
            if hung_tables and table_name in hung_tables:
                on_table = queries_on.get(table_name)
                if on_table is None:
                    on_table = sum(
                        c for _, c, p, _ in work if p[1] == table_name
                    )
                    queries_on[table_name] = on_table
                per_exec += hung_wait_ms / (on_table if on_table > 1 else 1)
                # Blocked statements hit the client timeout.
                blocked = count // 4
                timeouts += blocked if blocked > 1 else 1

            per_class_ms[name] = per_exec
            total_time += per_exec * count
            regret = act_cost - optimal
            if regret > 0.0:
                plan_regret_ms += regret * count
            # Symmetric divergence: both over- and under-estimation of
            # cardinalities (Example 5's Xest vs Xact) should register.
            if est_rows <= 0:
                ratio = float("inf") if act_rows > 0 else 1.0
            else:
                ratio = act_rows / est_rows
            # A ratio of exactly 1 diverges by 1, which never raises
            # the running maximum (it starts at 1).
            if ratio != 1.0:
                if ratio > 0:
                    inverse = 1.0 / ratio
                    divergence = inverse if inverse > ratio else ratio
                else:
                    divergence = 1e6
                if divergence > est_act_ratio_max:
                    est_act_ratio_max = (
                        1e6 if 1e6 < divergence else divergence
                    )
            if is_index:
                index_scans += count
            else:
                full_scans += count
            lock_wait_ms += wait_ms * count
            if is_write:
                grown = rows_inserted * count
                # Table.grow: later classes on this table price (and
                # collide on) the grown table.
                rows = rows + int(grown)
                table.rows = rows if rows > 0 else 0
                rows_grown += grown

        mean_service_ms = total_time / total_queries
        connections = self._connections(total_queries, mean_service_ms)
        if connections >= self.max_connections:
            # Saturated pool: waiting for a connection dominates.
            mean_service_ms *= 1.0 + connections / self.max_connections
        # Positional, in field order: keywords cost more than the
        # whole result construction.
        return DatabaseTickResult(
            per_class_ms,
            mean_service_ms,
            total_queries,
            hit_ratios,
            lock_wait_ms + hung_wait_ms,
            deadlocks,
            timeouts,
            est_act_ratio_max,
            plan_regret_ms,
            full_scans,
            index_scans,
            rows_grown,
            self.statistics.auto_analyze_and_max_staleness(now),
            connections,
        )

    def _connections(
        self, total_queries: float, mean_service_ms: float
    ) -> int:
        """Little's-law estimate of concurrently open connections."""
        offered = total_queries * mean_service_ms / 1000.0 * 1.2
        if not offered > 1.0:
            offered = 1.0
        ceiling = self.max_connections * 2
        return int(offered if offered < ceiling else ceiling)

    # ------------------------------------------------------------------
    # Fix entry points (Table 1, database rows).
    # ------------------------------------------------------------------

    def update_statistics(self, now: int) -> None:
        """ANALYZE every table — fixes suboptimal plans from staleness."""
        self.statistics.analyze_all(now)

    def repartition_table(self, table_name: str, factor: int = 4) -> int:
        """Multiply a table's partitions — fixes block contention.

        Returns the new partition count.
        """
        if factor < 2:
            raise ValueError(f"factor must be >= 2, got {factor}")
        table = self.tables[table_name]
        table.partitions *= factor
        return table.partitions

    def most_contended_table(self) -> str:
        """Table with the highest observed contention pressure.

        Pressure follows the lock manager's collision model — write
        volume times concurrency over independent hot blocks — using
        the most recent tick's traffic, so the repartitioning fix
        lands on the table that is actually hurting.
        """
        reads, writes = self._last_traffic

        def pressure(table: Table) -> float:
            w = writes.get(table.name, 0.0)
            if w <= 0:
                return 0.0
            concurrency = w + reads.get(table.name, 0.0)
            hot_blocks = max(
                1.0, table.pages * table.hot_fraction * table.partitions
            )
            return w * concurrency / hot_blocks

        best = max(self.tables.values(), key=pressure)
        if pressure(best) <= 0.0:
            # No write traffic observed yet: fall back to the most
            # concentrated table.
            best = min(
                self.tables.values(),
                key=lambda t: t.pages * t.hot_fraction * t.partitions,
            )
        return best.name

    def repartition_memory(self) -> dict[str, float]:
        """Rebalance buffer pools by demand — fixes buffer contention."""
        return self.buffers.repartition_by_demand()

    def kill_hung_query(self) -> str | None:
        """Abort the oldest hung transaction, if any."""
        return self.locks.kill_longest_running()

    def restart(self, now: int) -> None:
        """Full database restart: locks released, degradation cleared.

        Statistics survive a restart (they are persistent catalog
        state), as do table partitions and buffer-pool shares.
        """
        self.locks.clear()
        self.service_time_multiplier = 1.0
        self.restart_count += 1
