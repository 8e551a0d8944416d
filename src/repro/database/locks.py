"""Lock manager: block contention and deadlock detection.

Two Table 1 failure modes live here:

* "Read/write contention on table block" — modelled analytically: the
  probability that concurrent transactions collide on a hot block
  grows with write share and access skew, and shrinks with the number
  of physical partitions (the repartitioning fix's lever).
* "Deadlocked threads" (the database-side variant: a hung query
  holding locks) — modelled explicitly with a wait-for graph, a plain
  ``dict`` from each node to the set of nodes it waits on.  Cycles are
  listed by :func:`elementary_cycles`, a depth-first search over the
  few hung transactions, and broken by the kill-hung-query fix.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.database.schema import Table

__all__ = ["HungTransaction", "LockManager", "elementary_cycles"]


def elementary_cycles(
    successors: Mapping[str, set[str]], nodes: Sequence[str]
) -> list[list[str]]:
    """Every cycle of two or more nodes in the subgraph induced by ``nodes``.

    Each cycle is rooted at its lowest-ranked node (earliest in
    ``nodes``) and extended only through higher-ranked ones, so it is
    listed exactly once; self-loops are not cycles here.
    """
    cycles: list[list[str]] = []

    def extend(path: list[str], later: Sequence[str]) -> None:
        succ = successors[path[-1]]
        if len(path) > 1 and path[0] in succ:
            cycles.append(path.copy())
        for node in later:
            if node in succ and node not in path:
                path.append(node)
                extend(path, later)
                path.pop()

    for rank, root in enumerate(nodes):
        extend([root], nodes[rank + 1 :])
    return cycles


@dataclass
class HungTransaction:
    """A long-running transaction pinning locks on one table.

    Attributes:
        txn_id: unique identifier.
        table: table whose hot blocks it holds.
        started_at: tick when it appeared.
        victims_per_tick: how many normal transactions it blocks each
            tick while alive.
        blocked: sessions blocked behind it so far, ``victims_per_tick``
            more each tick it stays hung.
    """

    txn_id: str
    table: str
    started_at: int
    victims_per_tick: int = 8
    blocked: int = 0


class LockManager:
    """Per-table contention model plus an explicit wait-for graph."""

    # Scales collision probability into milliseconds of lock wait: a
    # colliding transaction waits for the holder's block-level work.
    HOLD_MS = 180.0
    # Each blocked session behind a hung transaction waits this long.
    HUNG_WAIT_MS = 250.0

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables
        self._hung: dict[str, HungTransaction] = {}
        # Wait-for graph: node -> the nodes it waits on.
        self.wait_for: dict[str, set[str]] = {}
        self.total_deadlocks_detected = 0
        self.total_kills = 0
        # rows-per-page per table, hoisted out of the per-tick
        # contention pricing (row width never changes at runtime).
        self._rows_per_page = {
            name: max(1, table.PAGE_BYTES // table.row_bytes)
            for name, table in tables.items()
        }

    # ------------------------------------------------------------------
    # Analytical block contention (Table 1: read/write contention).
    # ------------------------------------------------------------------

    def contention_wait_ms(
        self, table_name: str, reads: float, writes: float
    ) -> float:
        """Mean lock-wait time added per transaction on this table.

        The collision rate follows a birthday-style approximation on
        the table's hot blocks: ``writes`` transactions hold exclusive
        block locks, and any of the ``reads + writes`` concurrent
        accesses landing on the same hot block within a partition
        waits.  Repartitioning multiplies the number of independent
        lock domains, dividing the collision rate.
        """
        if writes <= 0:
            return 0.0
        table = self._tables[table_name]
        rows_per_page = self._rows_per_page.get(table_name)
        if rows_per_page is None:  # table added after construction
            rows_per_page = max(1, table.PAGE_BYTES // table.row_bytes)
            self._rows_per_page[table_name] = rows_per_page
        pages = max(1, -(-table.rows // rows_per_page))
        hot_blocks = max(
            1.0, pages * table.hot_fraction * table.partitions
        )
        concurrency = reads + writes
        collision_rate = min(
            1.0, writes * concurrency / (hot_blocks * 3200.0)
        )
        return collision_rate * self.HOLD_MS

    # ------------------------------------------------------------------
    # Hung transactions and deadlocks (wait-for graph).
    # ------------------------------------------------------------------

    @property
    def hung_transactions(self) -> list[HungTransaction]:
        """Currently registered hung transactions."""
        return list(self._hung.values())

    @property
    def any_hung(self) -> bool:
        """True when at least one hung transaction is registered."""
        return bool(self._hung)

    def hung_tables(self) -> set[str]:
        """Tables with at least one hung transaction pinning locks."""
        return {txn.table for txn in self._hung.values()}

    def register_hung_transaction(self, txn: HungTransaction) -> None:
        """Install a hung transaction (fault-injection entry point)."""
        if txn.txn_id in self._hung:
            raise ValueError(f"transaction {txn.txn_id} already registered")
        self._hung[txn.txn_id] = txn
        self.wait_for.setdefault(txn.txn_id, set())

    def block_waiters(self, now: int) -> float:
        """Accumulate one tick of blocking behind hung transactions.

        Returns the total lock-wait milliseconds inflicted this tick.
        Each hung transaction counts the sessions it blocks; they wait
        on it and nothing waits on them, so they stay out of the
        wait-for graph.  A second hung transaction waiting on the
        first's table creates the cycle that :meth:`detect_deadlocks`
        reports.
        """
        if not self._hung:
            return 0.0
        wait_for = self.wait_for
        wait_ms = 0.0
        hung_list = list(self._hung.values())
        for txn in hung_list:
            txn.blocked += txn.victims_per_tick
            wait_ms += txn.victims_per_tick * self.HUNG_WAIT_MS
        # Hung transactions on the same table mutually wait — cycle.
        for i, a in enumerate(hung_list):
            for b in hung_list[i + 1 :]:
                if a.table == b.table:
                    wait_for[a.txn_id].add(b.txn_id)
                    wait_for[b.txn_id].add(a.txn_id)
        return wait_ms

    def detect_deadlocks(self) -> list[list[str]]:
        """Cycles in the wait-for graph (each is a deadlock).

        The graph holds only hung-transaction nodes, so detection is
        O(hung transactions) however long they have been hung.
        """
        if len(self._hung) < 2:
            return []
        deadlocks = elementary_cycles(self.wait_for, list(self._hung))
        self.total_deadlocks_detected += len(deadlocks)
        return deadlocks

    def kill_transaction(self, txn_id: str) -> bool:
        """Abort one hung transaction, releasing the sessions it blocked.

        This is the "kill hung query" fix of Table 1.  Returns True if
        the transaction existed.
        """
        if self._hung.pop(txn_id, None) is None:
            return False
        wait_for = self.wait_for
        wait_for.pop(txn_id, None)
        for other in self._hung:
            wait_for[other].discard(txn_id)
        self.total_kills += 1
        return True

    def kill_longest_running(self) -> str | None:
        """Kill the oldest hung transaction (the policy's default victim)."""
        if not self._hung:
            return None
        victim = min(self._hung.values(), key=lambda txn: txn.started_at)
        self.kill_transaction(victim.txn_id)
        return victim.txn_id

    def clear(self) -> None:
        """Release everything (a tier or service restart does this)."""
        self._hung.clear()
        self.wait_for.clear()
