"""Deadlock counting on the wait-for graph.

The engine reads only the number of deadlocks per tick, so the cycle
enumerator must count every elementary cycle of two or more nodes
exactly once.  The oracle below is brute force: every subset of at
least two nodes in every cyclic order.
"""

from __future__ import annotations

from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.locks import HungTransaction, LockManager, elementary_cycles
from repro.database.schema import rubis_schema

NODES = [f"n{i}" for i in range(6)]


@st.composite
def digraphs(draw):
    """``(successors, nodes)``: up to 6 nodes, self-loops allowed,
    ``nodes`` in a random rank order."""
    nodes = draw(st.permutations(NODES[: draw(st.integers(0, 6))]))
    successors = {
        node: set(draw(st.lists(st.sampled_from(NODES), max_size=6)))
        & set(nodes)
        for node in nodes
    }
    return successors, nodes


def brute_force_cycle_count(successors, nodes) -> int:
    count = 0
    for size in range(2, len(nodes) + 1):
        for subset in combinations(sorted(nodes), size):
            first, rest = subset[0], subset[1:]
            for order in permutations(rest):
                ring = (first, *order)
                if all(
                    ring[(k + 1) % size] in successors[ring[k]]
                    for k in range(size)
                ):
                    count += 1
    return count


@settings(max_examples=200)
@given(digraphs())
def test_cycle_count_matches_brute_force(graph):
    successors, nodes = graph
    cycles = elementary_cycles(successors, nodes)
    assert len(cycles) == brute_force_cycle_count(successors, nodes)
    for cycle in cycles:
        assert len(cycle) == len(set(cycle)) > 1
        assert all(
            cycle[(k + 1) % len(cycle)] in successors[node]
            for k, node in enumerate(cycle)
        )


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("hang"), st.sampled_from(["items", "bids", "users"])),
        st.tuples(st.just("block"), st.none()),
        st.tuples(st.just("kill"), st.integers(0, 5)),
        st.tuples(st.just("kill_oldest"), st.none()),
    ),
    max_size=12,
)


@given(_ops)
def test_waiters_never_lie_on_a_cycle(ops):
    locks = LockManager(rubis_schema())
    for now, (op, arg) in enumerate(ops):
        if op == "hang":
            locks.register_hung_transaction(
                HungTransaction(f"T{now}", arg, now, victims_per_tick=2)
            )
        elif op == "block":
            locks.block_waiters(now)
        elif op == "kill":
            hung = locks.hung_transactions
            if hung:
                locks.kill_transaction(hung[arg % len(hung)].txn_id)
        else:
            locks.kill_longest_running()

        graph = locks.wait_for
        hung_ids = {txn.txn_id for txn in locks.hung_transactions}
        assert hung_ids <= set(graph)
        # Every edge ends at a node, and nothing waits on a waiter.
        targets = set().union(*graph.values())
        assert targets <= hung_ids
        cycles = elementary_cycles(graph, sorted(graph))
        assert all(set(cycle) <= hung_ids for cycle in cycles)
        assert len(cycles) == len(locks.detect_deadlocks())
