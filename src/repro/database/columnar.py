"""Vectorized fast path for the database engine's per-tick loop.

:meth:`DatabaseEngine.process_tick` prices each active query class in
a scalar Python loop — the hottest code in the simulator.  For a
*healthy* engine the loop body is a pure arithmetic expression tree
over per-template invariants and evolving table cardinalities, so the
whole tick can be evaluated columnarly: one NumPy expression per cost
term over the active-class axis, with ``np.cumsum`` standing in for
the loop's sequential float accumulators (cumsum accumulates in
element order, so the last partial sum is bit-identical to the scalar
loop's running total).

The fast path applies only when the tick is *regular*:

* no hung transactions (the hung/timeout branch stays scalar),
* no data-distribution skew, live or recorded (skew gathers would put
  per-class dict lookups back on the hot path), and
* the active mix is at least ``min_batch`` classes wide — below that,
  NumPy's fixed per-call overhead loses to the tuned scalar loop, so
  the dispatcher measures nothing and simply delegates (RUBiS's
  13-class universe sits below the default crossover; an engine with a
  wider template set crosses it).

Irregular ticks fall back to the object path, which remains the
reference implementation and the only writer of irregular state.  The
fast path mutates the same engine objects the scalar loop does
(buffer-pool demand EMAs, table growth, recorded traffic,
auto-ANALYZE), so object state never forks: the two paths can
interleave tick by tick and stay bit-identical.

The scalar loop prices each class's table terms (hindsight scan pages,
contention) from the table's *current* row count, so the columnar form
needs only the per-class row counts ``rows_k``, reconstructed with an
exclusive per-table prefix sum of the growth each write class applies.
"""

from __future__ import annotations

import numpy as np

from repro.database.engine import DatabaseEngine, DatabaseTickResult

__all__ = [
    "ColumnarEngineAccelerator",
    "install_columnar_engine",
    "price_fused_ticks",
    "price_gathered_ticks",
]

# Active-mix width below which the scalar loop is faster than the
# array evaluation (fixed NumPy call overhead dominates tiny batches;
# the measured crossover sits near 48 classes).
MIN_BATCH = 48


class ColumnarEngineAccelerator:
    """Bit-exact vectorized ``process_tick`` for a healthy engine.

    Binds to one :class:`DatabaseEngine`; :meth:`process_tick` either
    executes the tick columnarly or delegates to the engine's original
    scalar path when the tick is irregular or too narrow to win.
    """

    def __init__(
        self, engine: DatabaseEngine, min_batch: int = MIN_BATCH
    ) -> None:
        self._engine = engine
        self.min_batch = min_batch
        # The original bound method: installation shadows the class
        # attribute with this accelerator's dispatcher, so keep a
        # direct reference for fallback.
        self._object_tick = DatabaseEngine.process_tick.__get__(engine)
        info_map = engine._tmpl_info
        self._names = list(info_map)
        self._idx = {name: j for j, name in enumerate(self._names)}
        tables: list = []
        table_pos: dict[str, int] = {}
        tbl = []
        for info in info_map.values():
            pos = table_pos.get(info.table_name)
            if pos is None:
                pos = len(tables)
                table_pos[info.table_name] = pos
                tables.append(info.table)
            tbl.append(pos)
        self._tables = tables
        self._tnames = list(table_pos)
        self._table_pos = table_pos
        self._stats = [
            engine.statistics.statistics_for(name) for name in self._tnames
        ]
        infos = list(info_map.values())
        self._infos = infos
        self._tbl = np.asarray(tbl, dtype=np.int64)
        self._tbl_list = tbl
        self._rpp = np.asarray(
            [i.rows_per_page for i in infos], dtype=np.int64
        )
        self._epp = np.asarray(
            [i.entries_per_page for i in infos], dtype=np.int64
        )
        self._isw = np.asarray([i.is_write for i in infos], dtype=bool)
        self._isw_f = self._isw.astype(np.float64)
        self._ri = np.asarray([i.rows_inserted for i in infos], np.int64)
        self._ind = np.asarray([i.indexed for i in infos], dtype=bool)
        self._sel = np.asarray([i.selectivity for i in infos], np.float64)
        self._cpu = np.asarray(
            [i.cpu_ms_per_row for i in infos], np.float64
        )
        # Selectivities on the regular (skew-free) path are template
        # constants: the estimated side clamps unconditionally
        # (est_skew is 1.0 either way), the actual side clamps only
        # when a column is involved — exactly the scalar branches.
        self._est_sel = np.minimum(1.0, self._sel)
        self._act_sel = np.where(
            np.asarray([i.column is not None for i in infos], dtype=bool),
            self._est_sel,
            self._sel,
        )
        # Packed per-template constants: one row-gather per job in the
        # batched pass replaces a fancy-index per attribute.
        self._const_f = np.column_stack(
            (self._act_sel, self._est_sel, self._cpu, self._isw_f)
        )
        self._const_i = np.column_stack((self._rpp, self._epp, self._ri))
        self._const_b = np.column_stack((self._ind, self._isw))
        self._isw_list = [bool(i.is_write) for i in infos]
        # Per-table state scratch, refreshed by _gather every tick
        # (tables mutate through growth and fix entry points):
        # float columns hot_fraction/partitions/writes/reads, int
        # columns rows/recorded_rows.
        n_tables = len(tables)
        self._tstate_f = np.zeros((n_tables, 4))
        self._tstate_i = np.zeros((n_tables, 2), dtype=np.int64)
        # Cached gather layout for the steady-state mix (every template
        # active with a positive count — the overwhelmingly common
        # regular tick).  Built lazily by the slow gather; hit when the
        # incoming dict has the exact same key tuple.
        self._fast: tuple | None = None

    # ------------------------------------------------------------------
    # Applicability.
    # ------------------------------------------------------------------

    def regular_tick(self) -> bool:
        """True when the columnar form covers this tick exactly."""
        engine = self._engine
        if engine.locks.any_hung:
            return False
        for table in self._tables:
            if table.skew:
                return False
        for stats in self._stats:
            if stats.recorded_skew:
                return False
        return True

    # ------------------------------------------------------------------
    # The vectorized tick.
    # ------------------------------------------------------------------

    def process_tick(
        self, query_counts: dict[str, int], now: int
    ) -> DatabaseTickResult:
        """One tick: columnar when it wins, scalar reference otherwise."""
        if len(query_counts) < self.min_batch or not self.regular_tick():
            return self._object_tick(query_counts, now)
        gathered = self._gather(query_counts)
        if gathered is None:
            return self._object_tick(query_counts, now)
        return price_gathered_ticks([(self, gathered, now)])[0]

    def _gather(self, query_counts: dict[str, int]):
        """Collect the tick's active-class state for the vector pass.

        Returns ``None`` when the mix references a template whose table
        is missing from the schema — the object path's lazy KeyError
        behaviour, so the caller must delegate.
        """
        fast = self._fast
        if fast is not None and fast[0] == tuple(query_counts):
            counts = list(query_counts.values())
            if min(counts) > 0:
                return self._gather_fast(fast, counts)
        idx_of = self._idx
        templates = self._engine.templates
        tbl_list = self._tbl_list
        tnames = self._tnames
        isw_list = self._isw_list
        names: list[str] = []
        idx: list[int] = []
        counts: list[int] = []
        reads_by_table: dict[str, float] = {}
        writes_by_table: dict[str, float] = {}
        for name, count in query_counts.items():
            if count > 0:
                j = idx_of.get(name)
                if j is None:
                    # Unknown to the dispatch tables: a template the
                    # engine knows must delegate (the object path's
                    # lazy KeyError); anything else the object path
                    # silently skips.
                    if name in templates:
                        return None
                    continue
                names.append(name)
                idx.append(j)
                counts.append(count)
                table_name = tnames[tbl_list[j]]
                if isw_list[j]:
                    writes_by_table[table_name] = (
                        writes_by_table.get(table_name, 0.0) + count
                    )
                else:
                    reads_by_table[table_name] = (
                        reads_by_table.get(table_name, 0.0) + count
                    )
        gathered = _GatheredTick()
        gathered.names = names
        gathered.total_queries = sum(counts)
        if gathered.total_queries == 0:
            return gathered
        ia = np.asarray(idx, dtype=np.int64)
        gathered.ia = ia
        gathered.cnt = np.asarray(counts, dtype=np.int64)
        # Per-table state snapshot, then one row-gather per matrix to
        # land it in active-class order.
        tstate_f = self._tstate_f
        tstate_i = self._tstate_i
        for t, table in enumerate(self._tables):
            tstate_f[t, 0] = table.hot_fraction
            tstate_f[t, 1] = table.partitions
            tstate_i[t, 0] = table.rows
        for t, stats in enumerate(self._stats):
            tstate_i[t, 1] = stats.recorded_rows
        tstate_f[:, 2] = 0.0
        tstate_f[:, 3] = 0.0
        table_pos = self._table_pos
        for table_name, total in writes_by_table.items():
            tstate_f[table_pos[table_name], 2] = total
        for table_name, total in reads_by_table.items():
            tstate_f[table_pos[table_name], 3] = total
        ta = self._tbl[ia]
        gathered.tbl_active = ta
        gathered.fdat = tstate_f[ta]
        gathered.idat = tstate_i[ta]
        gathered.reads_by_table = reads_by_table
        gathered.writes_by_table = writes_by_table
        if names and len(names) == len(query_counts):
            # Every key was an active known template: the layout (index
            # gather, table gather, per-table first-appearance orders)
            # is a pure function of the key tuple, so cache it.
            wf = self._isw_f[ia]
            table_pos = self._table_pos
            self._fast = (
                tuple(query_counts),
                names,
                ia,
                ta,
                [(tn, table_pos[tn]) for tn in writes_by_table],
                [(tn, table_pos[tn]) for tn in reads_by_table],
                wf,
                1.0 - wf,
            )
        return gathered

    def _gather_fast(self, fast: tuple, counts: list):
        """Gather under a cached layout: same key tuple, all counts
        positive.

        Counts are integers (the scalar path already relies on this —
        ``cnt`` truncates to int64 either way), so the per-table
        read/write totals are exact in any summation order and the
        dict-accumulation loop collapses to two bincounts.  Table
        orders inside the traffic dicts come from the cached
        first-appearance lists, matching the scalar loop's insertion
        order for this key tuple.
        """
        _, names, ia, ta, w_order, r_order, wf, rf = fast
        gathered = _GatheredTick()
        gathered.names = names
        gathered.total_queries = sum(counts)
        cnt = np.asarray(counts, dtype=np.int64)
        gathered.ia = ia
        gathered.cnt = cnt
        cntf = cnt.astype(np.float64)
        n_tables = len(self._tables)
        w_t = np.bincount(ta, weights=cntf * wf, minlength=n_tables)
        r_t = np.bincount(ta, weights=cntf * rf, minlength=n_tables)
        tstate_f = self._tstate_f
        tstate_i = self._tstate_i
        for t, table in enumerate(self._tables):
            tstate_f[t, 0] = table.hot_fraction
            tstate_f[t, 1] = table.partitions
            tstate_i[t, 0] = table.rows
        for t, stats in enumerate(self._stats):
            tstate_i[t, 1] = stats.recorded_rows
        tstate_f[:, 2] = w_t
        tstate_f[:, 3] = r_t
        gathered.tbl_active = ta
        gathered.fdat = tstate_f[ta]
        gathered.idat = tstate_i[ta]
        gathered.writes_by_table = {
            tn: float(w_t[t]) for tn, t in w_order
        }
        gathered.reads_by_table = {
            tn: float(r_t[t]) for tn, t in r_order
        }
        return gathered


class _GatheredTick:
    """One engine tick's gathered active-class arrays."""

    __slots__ = (
        "names",
        "total_queries",
        "ia",
        "cnt",
        "fdat",
        "idat",
        "tbl_active",
        "reads_by_table",
        "writes_by_table",
    )


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate job arrays; a single job passes through copy-free."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def price_gathered_ticks(jobs) -> list[DatabaseTickResult]:
    """Price many gathered engine ticks in one concatenated pass.

    ``jobs`` is a list of ``(accelerator, gathered, now)`` triples, each
    from a *different* engine, all regular (see
    :meth:`ColumnarEngineAccelerator.regular_tick`).  The elementwise
    cost math runs once over the concatenation of every job's
    active-class axis; all reductions and state mutations (buffer-pool
    EMAs, table growth, auto-ANALYZE) slice back to per-job segments,
    so every result — and every engine's state — is bit-identical to
    pricing the jobs one at a time.  A single-job call is exactly the
    per-engine columnar tick; that is the path the kernel differentials
    pin.
    """
    results = [DatabaseTickResult() for _ in jobs]
    live: list[tuple[int, ColumnarEngineAccelerator, _GatheredTick, int]] = []
    for slot, (accel, gathered, now) in enumerate(jobs):
        result = results[slot]
        result.total_queries = gathered.total_queries
        if gathered.total_queries == 0:
            engine = accel._engine
            result.buffer_hit = engine.buffers.hit_ratios({})
            result.max_staleness = engine.statistics.max_staleness()
            continue
        live.append((slot, accel, gathered, now))
    if not live:
        return results

    n_live = len(live)
    seg = np.fromiter(
        (len(g.names) for _, _, g, _ in live), dtype=np.int64, count=n_live
    )
    bounds_list = [0]
    total_width = 0
    for width in seg.tolist():
        total_width += width
        bounds_list.append(total_width)
    cnt = _cat([g.cnt for _, _, g, _ in live])
    cntf = cnt.astype(np.float64)
    fdat = _cat([g.fdat for _, _, g, _ in live])
    hot = fdat[:, 0]
    part = fdat[:, 1]
    w = fdat[:, 2]
    r = fdat[:, 3]
    idat = _cat([g.idat for _, _, g, _ in live])
    rows0 = idat[:, 0]
    est_table_rows = idat[:, 1]
    const_f = _cat([a._const_f[g.ia] for _, a, g, _ in live])
    act_sel = const_f[:, 0]
    est_sel = const_f[:, 1]
    cpu = const_f[:, 2]
    isw_f = const_f[:, 3]
    const_i = _cat([a._const_i[g.ia] for _, a, g, _ in live])
    rpp = const_i[:, 0]
    epp = const_i[:, 1]
    ri = const_i[:, 2]
    const_b = _cat([a._const_b[g.ia] for _, a, g, _ in live])
    ind = const_b[:, 0]
    isw = const_b[:, 1]

    # ---- working-set demand (pre-growth rows, active order) ----
    pages0 = np.maximum(1, -(-rows0 // rpp))
    pages0f = pages0.astype(np.float64)
    data_contrib = np.where(
        ind, np.minimum(rows0 * act_sel * cntf, pages0f), pages0f
    )
    index_contrib = np.where(
        ind, np.maximum(1.0, rows0 / epp) * 0.05, 0.0
    )
    log_contrib = 0.25 * cntf * isw_f
    # Buffer-pool demand and hit ratios stay strictly per engine — the
    # EMA mutation order within each engine matches the scalar loop.
    # Python's left-to-right ``sum`` over the segment accumulates in
    # exactly the order the scalar loop's running total does (and the
    # cumsum this replaced), so the totals are bit-identical.
    data_list = data_contrib.tolist()
    index_list = index_contrib.tolist()
    log_list = log_contrib.tolist()
    scalars = np.empty((n_live, 7))
    for k, (slot, accel, gathered, _now) in enumerate(live):
        lo, hi = bounds_list[k], bounds_list[k + 1]
        engine = accel._engine
        demands = {
            "data": float(sum(data_list[lo:hi])),
            "index": float(sum(index_list[lo:hi])),
            "log": float(sum(log_list[lo:hi])),
        }
        hit_ratios = engine.buffers.hit_ratios(demands)
        results[slot].buffer_hit = hit_ratios
        optimizer = engine.optimizer
        row = scalars[k]
        row[0] = 1.0 - hit_ratios.get("data", 0.0)
        row[1] = 1.0 - hit_ratios.get("index", 0.0)
        row[2] = optimizer.seq_page_ms
        row[3] = optimizer.index_lookup_ms
        row[4] = optimizer.rand_page_ms
        row[5] = engine.locks.HOLD_MS
        row[6] = engine.service_time_multiplier
        engine._last_traffic = (
            gathered.reads_by_table,
            gathered.writes_by_table,
        )

    # ---- per-engine scalars broadcast over their segments ----
    rep = scalars if n_live == total_width else np.repeat(
        scalars, seg, axis=0
    )
    data_miss = rep[:, 0]
    index_miss = rep[:, 1]
    seq_page_ms = rep[:, 2]
    lookup_ms = rep[:, 3]
    rand_page_ms = rep[:, 4]
    hold_ms = rep[:, 5]
    service_mult = rep[:, 6]

    # ---- plan costing over the concatenated active-class axis ----
    descent = lookup_ms * (0.2 + 0.8 * index_miss)
    growth = np.where(isw, ri * cnt, 0)
    # Exclusive per-table prefix of each engine's growth: class k sees
    # the rows grown by earlier write classes on its table.
    growth_all = growth.tolist()
    prior = np.zeros(len(cnt), dtype=np.int64)
    for k, (_slot, _accel, gathered, _now) in enumerate(live):
        lo, hi = bounds_list[k], bounds_list[k + 1]
        growth_list = growth_all[lo:hi]
        if any(growth_list):
            prior_seg = prior[lo:hi]
            seen: dict[int, int] = {}
            for pos, t in enumerate(gathered.tbl_active.tolist()):
                prior_seg[pos] = seen.get(t, 0)
                g = growth_list[pos]
                if g:
                    seen[t] = seen.get(t, 0) + g
    rows = rows0 + prior
    est_rows = np.maximum(est_table_rows * est_sel, 0.0)
    act_rows = np.maximum(rows * act_sel, 0.0)
    per_row = rand_page_ms * data_miss + cpu + 0.0001
    est_index = descent + est_rows * per_row
    act_index = descent + act_rows * per_row
    est_pages = (
        np.maximum(1.0, est_table_rows / rpp) * seq_page_ms * data_miss
    )
    act_pages = np.maximum(1.0, rows / rpp) * seq_page_ms * data_miss
    est_full = est_pages + est_table_rows * cpu
    act_full = act_pages + rows * cpu
    is_index = ind & (est_index <= est_full)
    act_cost = np.where(is_index, act_index, act_full)
    optimal = np.where(ind, np.minimum(act_full, act_index), act_full)

    # Contention: LockManager.contention_wait_ms elementwise, with
    # each class priced at its position's current row count, as the
    # scalar loop does.
    pages_now = np.maximum(1, -(-rows // rpp))
    hot_blocks = np.maximum(1.0, pages_now * hot * part)
    collision = np.minimum(1.0, w * (r + w) / (hot_blocks * 3200.0))
    wait = np.where(w > 0, collision * hold_ms, 0.0)

    per_exec = act_cost * service_mult
    per_exec = per_exec + wait
    exec_time = per_exec * cntf
    regret = np.maximum(0.0, act_cost - optimal) * cntf
    wait_time = wait * cntf
    # Symmetric Xest/Xact divergence, clamped like the scalar loop.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            est_rows <= 0,
            np.where(act_rows > 0, np.inf, 1.0),
            act_rows / est_rows,
        )
        divergence = np.where(
            ratio > 0, np.maximum(ratio, 1.0 / ratio), 1e6
        )
    divergence = np.minimum(divergence, 1e6)

    # ---- per-engine reductions and state writes, segment order ----
    # Same left-to-right Python sums as the demand loop above: bitwise
    # the scalar loop's sequential accumulators.
    per_exec_list = per_exec.tolist()
    exec_list = exec_time.tolist()
    regret_list = regret.tolist()
    wait_list = wait_time.tolist()
    div_list = divergence.tolist()
    # Integer counts, so the segment sum is exact in any order and the
    # masked reduction per job collapses to one global select.
    scans_list = np.where(is_index, cnt, 0).tolist()
    for k, (slot, accel, gathered, now) in enumerate(live):
        lo, hi = bounds_list[k], bounds_list[k + 1]
        result = results[slot]
        engine = accel._engine
        result.per_class_ms = dict(
            zip(gathered.names, per_exec_list[lo:hi])
        )
        total_time = float(sum(exec_list[lo:hi]))
        result.plan_regret_ms = float(sum(regret_list[lo:hi]))
        result.est_act_ratio_max = max(1.0, max(div_list[lo:hi]))
        result.index_scans = sum(scans_list[lo:hi])
        result.full_scans = result.total_queries - result.index_scans
        result.lock_wait_ms = float(sum(wait_list[lo:hi])) + 0.0
        growth_list = growth_all[lo:hi]
        rows_grown = sum(growth_list)
        result.rows_grown = rows_grown
        if rows_grown:
            totals: dict[int, int] = {}
            for pos, t in enumerate(gathered.tbl_active.tolist()):
                g = growth_list[pos]
                if g:
                    totals[t] = totals.get(t, 0) + g
            for t, total in totals.items():
                accel._tables[t].grow(total)

        result.mean_service_ms = total_time / result.total_queries
        result.connections_in_use = engine._connections(
            result.total_queries, result.mean_service_ms
        )
        if result.connections_in_use >= engine.max_connections:
            result.mean_service_ms *= 1.0 + (
                result.connections_in_use / engine.max_connections
            )
        result.max_staleness = (
            engine.statistics.auto_analyze_and_max_staleness(now)
        )
    return results


def price_fused_ticks(
    jobs, min_batch: int = MIN_BATCH
) -> tuple[list[DatabaseTickResult], int]:
    """Price one tick for many engines, batching where it wins.

    ``jobs`` is a list of ``(accelerator, query_counts, now)`` triples,
    one per fleet member, all at the same round step.  Regular ticks
    are gathered and — when their combined active width crosses
    ``min_batch`` — priced in one concatenated
    :func:`price_gathered_ticks` pass; irregular ticks (hung
    transactions, skew) and sub-crossover batches delegate to each
    engine's scalar reference loop.  Any mix of paths is bit-identical
    (the per-engine dispatcher guarantee, applied per segment).

    Returns ``(results, batched)`` where ``batched`` counts the jobs
    priced by the concatenated pass — the fused-engagement signal the
    CI gate checks.
    """
    results: list[DatabaseTickResult | None] = [None] * len(jobs)
    batch: list[tuple[int, ColumnarEngineAccelerator, _GatheredTick, int]] = []
    width = 0
    for slot, (accel, query_counts, now) in enumerate(jobs):
        if not accel.regular_tick():
            results[slot] = accel._object_tick(query_counts, now)
            continue
        gathered = accel._gather(query_counts)
        if gathered is None:
            results[slot] = accel._object_tick(query_counts, now)
            continue
        batch.append((slot, accel, gathered, now))
        width += len(gathered.names)
    batched = 0
    if batch and width >= min_batch:
        priced = price_gathered_ticks(
            [(accel, gathered, now) for _, accel, gathered, now in batch]
        )
        for (slot, _, _, _), result in zip(batch, priced):
            results[slot] = result
        batched = len(batch)
    else:
        for slot, accel, _gathered, now in batch:
            results[slot] = accel._object_tick(
                jobs[slot][1], now
            )
    return results, batched


def install_columnar_engine(
    engine: DatabaseEngine, min_batch: int = MIN_BATCH
) -> ColumnarEngineAccelerator:
    """Shadow ``engine.process_tick`` with the columnar dispatcher.

    The engine object stays authoritative for all state and every fix
    entry point; only tick pricing is re-routed.  Returns the
    accelerator (also reachable as ``engine._columnar``).
    """
    accelerator = ColumnarEngineAccelerator(engine, min_batch=min_batch)
    engine.process_tick = accelerator.process_tick
    engine._columnar = accelerator
    return accelerator
