"""Differential tests: the database tick against its previous loop.

:class:`ReferenceDatabaseEngine` keeps the two-pass tick the engine
shipped before its rewrite.  Hypothesis drives a current engine and a
reference engine through one generated history (query mixes in any
key order, column skew, stale statistics with auto-ANALYZE off, hung
transactions and deadlocks, a saturated connection pool, the service
time multiplier, idle ticks, unknown templates, and write classes that
grow a table before later classes on it are priced) and requires every
:class:`DatabaseTickResult` field, and the engine state, to agree bit
for bit.  A second suite pins the per-class cost and the plan regret to
:meth:`Optimizer.plan_numbers` and :meth:`LockManager.contention_wait_ms`,
which the tick inlines.
"""

from __future__ import annotations

import copy
import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.engine import DatabaseEngine, DatabaseTickResult
from repro.database.locks import HungTransaction
from repro.database.queries import QueryTemplate, rubis_query_templates
from repro.database.schema import rubis_schema
from repro.scenarios.wide import wide_query_templates
from tests.database.reference_engine import ReferenceDatabaseEngine


def _templates() -> dict[str, QueryTemplate]:
    """Stock RUBiS classes, a slice of the wide tail (unindexed
    dimension-table scans included), column-less classes, and an
    indexed lookup on a table smaller than one index page."""
    templates = {**rubis_query_templates(), **wide_query_templates(24)}
    for template in (
        QueryTemplate("scan_regions", "regions", 1.0, None, indexed=False),
        QueryTemplate("lookup_category", "categories", 0.05, "category_id"),
        QueryTemplate("probe_buy_now", "buy_now", 0.002, None),
        QueryTemplate(
            "bulk_load_bids", "bids", 1e-7, None, is_write=True,
            rows_inserted=40_000,
        ),
    ):
        templates[template.name] = template
    return templates


TEMPLATES = _templates()
NAMES = sorted(TEMPLATES)
TABLES = sorted(rubis_schema())
SKEW_COLUMNS = sorted(
    {(t.table, t.column) for t in TEMPLATES.values() if t.column}
)


def _bits(value):
    """A comparison key that tells -0.0 from 0.0, NaNs by payload, and
    ``1`` from ``1.0``."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, dict):
        return ("dict", [(k, _bits(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_bits(v) for v in value])
    return (type(value).__name__, value)


def _result_bits(result: DatabaseTickResult):
    return [
        (f.name, _bits(getattr(result, f.name)))
        for f in dataclasses.fields(result)
    ]


def _state_bits(engine: DatabaseEngine):
    """Everything a tick may change, plus what the fixes read."""
    catalog = engine.statistics
    return _bits(
        [
            [
                (t.name, t.rows, t.partitions, dict(t.skew))
                for t in engine.tables.values()
            ],
            [
                (name, s.recorded_rows, dict(s.recorded_skew), s.analyzed_at)
                for name, s in catalog._stats.items()
            ],
            catalog.analyze_count,
            [
                (p.name, p.pages, p.demand_ema)
                for p in engine.buffers.pools.values()
            ],
            list(engine._last_traffic),
            sorted(engine.locks.wait_for),
            sorted((a, b) for a, bs in engine.locks.wait_for.items() for b in bs),
            engine.locks.total_deadlocks_detected,
        ]
    )


def _twins(**kwargs):
    return (
        DatabaseEngine(templates=dict(TEMPLATES), **kwargs),
        ReferenceDatabaseEngine(templates=dict(TEMPLATES), **kwargs),
    )


# One history step: (operation, argument).
_mix = st.lists(
    st.tuples(
        st.sampled_from(NAMES + ["bogus_query", "another_unknown"]),
        st.one_of(
            st.integers(-5, 3),
            st.integers(1, 400),
            st.integers(1_000, 60_000),
        ),
    ),
    max_size=40,
)
_step = st.one_of(
    st.tuples(st.just("tick"), _mix),
    st.tuples(st.just("tick"), _mix),
    st.tuples(st.just("tick"), _mix),
    st.tuples(st.just("idle"), st.none()),
    st.tuples(
        st.just("skew"),
        st.tuples(
            st.sampled_from(SKEW_COLUMNS),
            st.one_of(st.floats(0.001, 500.0), st.just(1.0)),
        ),
    ),
    st.tuples(st.just("clear_skew"), st.sampled_from(TABLES)),
    # ANALYZE right after a skew shift records it in the statistics.
    st.tuples(
        st.just("skew_analyze"),
        st.tuples(st.sampled_from(SKEW_COLUMNS), st.floats(0.001, 500.0)),
    ),
    st.tuples(st.just("auto_analyze"), st.booleans()),
    st.tuples(st.just("analyze"), st.none()),
    st.tuples(st.just("hang"), st.sampled_from(TABLES)),
    st.tuples(st.just("kill"), st.none()),
    st.tuples(st.just("restart"), st.none()),
    st.tuples(st.just("multiplier"), st.floats(0.25, 40.0)),
    st.tuples(st.just("max_connections"), st.integers(1, 200)),
    st.tuples(st.just("repartition"), st.sampled_from(TABLES)),
    st.tuples(st.just("repartition_memory"), st.none()),
)


def _apply(engine: DatabaseEngine, op: str, arg, now: int, n: int):
    """Apply one history step; returns the tick result, if any."""
    if op == "tick":
        return engine.process_tick(dict(arg), now)
    if op == "idle":
        return engine.process_tick({}, now)
    if op == "skew":
        (table, column), multiplier = arg
        engine.tables[table].set_skew(column, multiplier)
    elif op == "skew_analyze":
        (table, column), multiplier = arg
        engine.tables[table].set_skew(column, multiplier)
        engine.update_statistics(now)
    elif op == "clear_skew":
        engine.tables[arg].clear_skew()
    elif op == "auto_analyze":
        engine.statistics.auto_analyze_enabled = arg
    elif op == "analyze":
        engine.update_statistics(now)
    elif op == "hang":
        engine.locks.register_hung_transaction(
            HungTransaction(f"hung-{n}", arg, now)
        )
    elif op == "kill":
        engine.kill_hung_query()
    elif op == "restart":
        engine.restart(now)
    elif op == "multiplier":
        engine.service_time_multiplier = arg
    elif op == "max_connections":
        engine.max_connections = arg
    elif op == "repartition":
        engine.repartition_table(arg)
    elif op == "repartition_memory":
        engine.repartition_memory()
    return None


class TestTickDifferential:
    @settings(max_examples=60)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_histories_match_reference_bitwise(self, history):
        engine, reference = _twins()
        for n, (op, arg) in enumerate(history):
            now = 3 * n + 1
            got = _apply(engine, op, arg, now, n)
            want = _apply(reference, op, arg, now, n)
            if got is not None:
                assert _result_bits(got) == _result_bits(want), (n, op)
            assert _state_bits(engine) == _state_bits(reference), (n, op)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(NAMES), st.integers(1, 3_000)
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(TABLES),
        st.integers(1, 4),
    )
    def test_saturated_pool_hung_and_deadlocked(self, pairs, table, hangs):
        # One connection: every tick saturates the pool.
        engine, reference = _twins(max_connections=1)
        for twin in (engine, reference):
            twin.statistics.auto_analyze_enabled = False
            twin.service_time_multiplier = 7.5
            for k in range(hangs):
                twin.locks.register_hung_transaction(
                    HungTransaction(f"hung-{k}", table, k)
                )
        for now in range(1, 4):
            got = engine.process_tick(dict(pairs), now)
            want = reference.process_tick(dict(pairs), now)
            assert _result_bits(got) == _result_bits(want)
            assert _state_bits(engine) == _state_bits(reference)
        assert got.connections_in_use >= engine.max_connections
        assert got.timeouts > 0 or table not in {
            TEMPLATES[name].table for name, _ in pairs
        }
        assert (got.deadlocks > 0) == (hangs > 1)

    def test_growth_before_reads_on_the_same_table(self):
        # Writes land first in key order, so every later read class on
        # bids prices the grown table — and the auto-ANALYZE after the
        # loop sees the growth too.
        mix = {
            "bulk_load_bids": 60,
            "insert_bid": 5_000,
            "select_bids_by_item": 300,
            "select_bid_history_by_user": 40,
        }
        engine, reference = _twins()
        for now in range(1, 6):
            got = engine.process_tick(dict(mix), now)
            want = reference.process_tick(dict(mix), now)
            assert _result_bits(got) == _result_bits(want)
            assert _state_bits(engine) == _state_bits(reference)
        assert got.rows_grown == 60 * 40_000 + 5_000
        assert engine.statistics.analyze_count > 0

    def test_recorded_skew_then_drift(self):
        # Example 5: ANALYZE records a skewed distribution, the data
        # drifts back, and the optimizer keeps planning for the
        # recorded skew (estimates diverge from actuals both ways).
        mix = {
            "select_bids_by_item": 400,
            "insert_bid": 50,
            "select_items_by_category": 80,
            "lookup_category": 30,
        }
        engine, reference = _twins()
        for twin in (engine, reference):
            twin.tables["bids"].set_skew("item_id", 250.0)
            twin.tables["items"].set_skew("category_id", 0.02)
            twin.update_statistics(1)
            twin.tables["bids"].clear_skew()
            twin.tables["items"].set_skew("category_id", 9.0)
        for now in range(2, 6):
            got = engine.process_tick(dict(mix), now)
            want = reference.process_tick(dict(mix), now)
            assert _result_bits(got) == _result_bits(want)
            assert _state_bits(engine) == _state_bits(reference)
        assert got.est_act_ratio_max > 100.0
        assert got.plan_regret_ms > 0.0

    def test_idle_and_unknown_ticks_leave_traffic_alone(self):
        engine, reference = _twins()
        busy = {"insert_bid": 30, "select_item_by_id": 90}
        for twin in (engine, reference):
            twin.process_tick(dict(busy), 1)
        for mix in ({}, {"bogus_query": 50}, {"insert_bid": 0}, {"x": -4}):
            got = engine.process_tick(dict(mix), 2)
            want = reference.process_tick(dict(mix), 2)
            assert _result_bits(got) == _result_bits(want)
            assert got.total_queries == 0
            assert engine._last_traffic == ({"items": 90.0}, {"bids": 30.0})
        assert _state_bits(engine) == _state_bits(reference)

    def test_template_without_table_raises_like_reference(self):
        ghost = QueryTemplate("select_ghost", "ghosts", 0.01, "ghost_id")
        engine = DatabaseEngine(templates={**TEMPLATES, ghost.name: ghost})
        reference = ReferenceDatabaseEngine(
            templates={**TEMPLATES, ghost.name: ghost}
        )
        mix = {"insert_bid": 10, "select_ghost": 3}
        errors = []
        for twin in (engine, reference):
            with pytest.raises(KeyError) as info:
                twin.process_tick(dict(mix), 1)
            errors.append(info.value.args)
        assert errors[0] == errors[1] == ("select_ghost",)
        # Raised before anything was priced or grown.
        assert _state_bits(engine) == _state_bits(DatabaseEngine(
            templates={**TEMPLATES, ghost.name: ghost}
        ))
        assert _state_bits(engine) == _state_bits(reference)


# ----------------------------------------------------------------------
# The inlined plan costing and contention, pinned to their methods.
# ----------------------------------------------------------------------


def _expected_from_methods(before: DatabaseEngine, mix, result):
    """Per-class cost, regret, lock wait and scan split, recomputed
    class by class through ``Optimizer.plan_numbers`` and
    ``LockManager.contention_wait_ms`` on a copy of the pre-tick
    engine, growing its tables as the tick does."""
    data_miss = 1.0 - result.buffer_hit.get("data", 0.0)
    index_miss = 1.0 - result.buffer_hit.get("index", 0.0)
    active = [
        (name, count)
        for name, count in mix.items()
        if count > 0 and name in before.templates
    ]
    reads: dict[str, float] = {}
    writes: dict[str, float] = {}
    for name, count in active:
        template = before.templates[name]
        side = writes if template.is_write else reads
        side[template.table] = side.get(template.table, 0.0) + count
    per_class: dict[str, float] = {}
    regret = 0.0
    lock_wait = 0.0
    index_scans = 0
    for name, count in active:
        template = before.templates[name]
        table = before.tables[template.table]
        act_sel = table.actual_selectivity(
            template.selectivity, template.column
        )
        is_index, _est, _act, _est_cost, act_cost, optimal = (
            before.optimizer.plan_numbers(
                template, table, act_sel, data_miss, index_miss
            )
        )
        wait = before.locks.contention_wait_ms(
            template.table,
            reads.get(template.table, 0.0),
            writes.get(template.table, 0.0),
        )
        per_class[name] = act_cost * before.service_time_multiplier + wait
        regret += max(0.0, act_cost - optimal) * count
        lock_wait += wait * count
        index_scans += count if is_index else 0
        if template.is_write:
            table.grow(template.rows_inserted * count)
    return per_class, regret, lock_wait, index_scans


class TestInlinedMethodsPinned:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.sampled_from(NAMES), st.integers(1, 20_000)),
            min_size=1,
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(SKEW_COLUMNS), st.floats(0.01, 300.0)
            ),
            max_size=4,
        ),
        st.lists(st.sampled_from(TABLES), max_size=3),
        st.floats(0.5, 10.0),
        st.integers(0, 3),
    )
    def test_cost_and_regret_match_plan_numbers(
        self, pairs, skews, repartitioned, multiplier, warm_ticks
    ):
        engine = DatabaseEngine(templates=dict(TEMPLATES))
        engine.statistics.auto_analyze_enabled = False
        engine.service_time_multiplier = multiplier
        mix = dict(pairs)
        # Age the statistics first, so estimates and actuals diverge.
        for now in range(warm_ticks):
            engine.process_tick(dict(mix), now)
        for (table, column), multiplier_ in skews:
            engine.tables[table].set_skew(column, multiplier_)
        for table in repartitioned:
            engine.repartition_table(table)
        before = copy.deepcopy(engine)
        result = engine.process_tick(dict(mix), warm_ticks)
        per_class, regret, lock_wait, index_scans = _expected_from_methods(
            before, mix, result
        )
        assert _bits(result.per_class_ms) == _bits(per_class)
        assert _bits(result.plan_regret_ms) == _bits(regret)
        assert _bits(result.lock_wait_ms) == _bits(lock_wait)
        assert result.index_scans == index_scans
        assert result.index_scans + result.full_scans == result.total_queries
