"""Tests for the buffer manager and lock manager."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.database.bufferpool import BufferManager, BufferPool
from repro.database.locks import HungTransaction, LockManager
from repro.database.schema import rubis_schema


class TestBufferPool:
    def test_oversized_pool_hits(self):
        pool = BufferPool("data", pages=1000)
        assert pool.hit_ratio(100.0) == pytest.approx(0.995)

    def test_undersized_pool_misses(self):
        pool = BufferPool("data", pages=100)
        assert pool.hit_ratio(10_000.0) < 0.15

    @given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
    def test_hit_ratio_monotone_in_demand(self, demand_a, demand_b):
        pool = BufferPool("data", pages=500)
        low, high = sorted([demand_a, demand_b])
        assert pool.hit_ratio(low) >= pool.hit_ratio(high) - 1e-12

    def test_demand_ema_converges(self):
        pool = BufferPool("data", pages=10)
        for _ in range(60):
            pool.observe_demand(100.0)
        assert pool.demand_ema == pytest.approx(100.0, rel=0.01)


class TestBufferManager:
    def test_default_shares(self):
        manager = BufferManager(total_pages=10_000)
        assert manager.pool("data").pages == 7000
        assert manager.pool("index").pages == 2500

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BufferManager(shares={"data": 0.5, "index": 0.2, "log": 0.2})
        manager = BufferManager()
        with pytest.raises(ValueError):
            manager.set_shares({"data": 0.9, "index": 0.9, "log": -0.8})
        with pytest.raises(ValueError):
            manager.set_shares({"data": 1.0})  # missing pools

    def test_repartition_follows_demand(self):
        manager = BufferManager(total_pages=10_000)
        # Starve data, stuff log — then drive heavy data demand.
        manager.set_shares({"data": 0.05, "index": 0.05, "log": 0.90})
        for _ in range(40):
            manager.hit_ratios({"data": 9_000.0, "index": 500.0, "log": 10.0})
        before = manager.pool("data").pages
        shares = manager.repartition_by_demand()
        assert manager.pool("data").pages > before
        assert shares["data"] > 0.8
        assert manager.repartition_count == 1

    def test_repartition_keeps_floor(self):
        manager = BufferManager(total_pages=10_000)
        for _ in range(20):
            manager.hit_ratios({"data": 100_000.0, "index": 0.0, "log": 0.0})
        shares = manager.repartition_by_demand(floor_share=0.02)
        assert min(shares.values()) >= 0.015  # floor honoured (normalized)

    def test_unknown_pool_rejected(self):
        with pytest.raises(KeyError):
            BufferManager().pool("bogus")


class TestLockContention:
    def test_no_writes_no_waits(self):
        locks = LockManager(rubis_schema())
        assert locks.contention_wait_ms("items", reads=500, writes=0) == 0.0

    def test_wait_grows_with_writes(self):
        locks = LockManager(rubis_schema())
        low = locks.contention_wait_ms("items", reads=100, writes=5)
        high = locks.contention_wait_ms("items", reads=100, writes=50)
        assert high > low > 0.0

    def test_partitioning_divides_contention(self):
        schema = rubis_schema()
        locks = LockManager(schema)
        schema["items"].hot_fraction = 0.002  # contended
        before = locks.contention_wait_ms("items", reads=100, writes=20)
        schema["items"].partitions = 8
        after = locks.contention_wait_ms("items", reads=100, writes=20)
        assert after < before
        # Away from the saturation cap the division is exact.
        if before < LockManager.HOLD_MS:
            assert after == pytest.approx(before / 8, rel=1e-6)

    def test_wait_capped_at_hold_time(self):
        schema = rubis_schema()
        schema["items"].hot_fraction = 1e-4
        locks = LockManager(schema)
        wait = locks.contention_wait_ms("items", reads=1e5, writes=1e4)
        assert wait == pytest.approx(LockManager.HOLD_MS)


class TestHungTransactions:
    def test_blocking_accumulates_waiters(self):
        locks = LockManager(rubis_schema())
        txn = HungTransaction("T1", "items", 0)
        locks.register_hung_transaction(txn)
        for now in (1, 2, 3):
            wait = locks.block_waiters(now=now)
            assert wait > 0
            assert txn.blocked == now * txn.victims_per_tick
        # Blocked sessions are counted, not added to the wait-for graph.
        assert set(locks.wait_for) == {"T1"}

    def test_two_hung_on_same_table_deadlock(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("T1", "items", 0))
        locks.register_hung_transaction(HungTransaction("T2", "items", 1))
        locks.block_waiters(now=2)
        deadlocks = locks.detect_deadlocks()
        assert any({"T1", "T2"} <= set(cycle) for cycle in deadlocks)

    def test_different_tables_no_deadlock(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("T1", "items", 0))
        locks.register_hung_transaction(HungTransaction("T2", "bids", 1))
        locks.block_waiters(now=2)
        assert locks.detect_deadlocks() == []

    def test_kill_releases_waiters(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("T1", "items", 0))
        locks.block_waiters(now=1)
        assert locks.kill_transaction("T1")
        assert len(locks.wait_for) == 0
        assert not locks.kill_transaction("T1")  # already gone

    def test_kill_longest_running_picks_oldest(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("new", "items", 10))
        locks.register_hung_transaction(HungTransaction("old", "bids", 2))
        assert locks.kill_longest_running() == "old"

    def test_duplicate_registration_rejected(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("T1", "items", 0))
        with pytest.raises(ValueError):
            locks.register_hung_transaction(HungTransaction("T1", "items", 1))

    def test_clear_releases_everything(self):
        locks = LockManager(rubis_schema())
        locks.register_hung_transaction(HungTransaction("T1", "items", 0))
        locks.block_waiters(now=1)
        locks.clear()
        assert locks.hung_transactions == []
        assert len(locks.wait_for) == 0
