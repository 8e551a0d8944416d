"""Fleet campaigns — shared healing knowledge and parallel sharding.

Two fleet-level claims are measured, both beyond the paper's
single-service scope but direct consequences of its synopsis design:

* **knowledge transfer** — on one correlated-fault schedule, a fleet
  whose replicas exchange learned (symptoms, fix) signatures heals
  with fewer fix attempts and fewer escalations than the same fleet
  healing in isolation (the first replica to meet a failure kind pays
  the cold-start cost once for everyone);
* **parallel sharding** — sharding replicas across worker processes
  produces bit-identical aggregate statistics, and (given hardware
  parallelism) a >1.5x wall-clock speedup at 4 workers.

The benchmark kernel times the knowledge-exchange hot path: the
cursor scan that collects a replica's foreign updates each round.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.conftest import scale
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.fleet import SharedKnowledgeBase, run_fleet_campaign
from repro.fleet.campaign import format_fleet

FLEET_KWARGS = dict(
    n_services=4,
    seed=42,
    p_correlated=0.6,
    p_cascade=0.15,
)


@pytest.fixture(scope="module")
def fleet_pair():
    episodes = scale(8, 24)
    shared = run_fleet_campaign(
        episodes_per_service=episodes, share_knowledge=True, **FLEET_KWARGS
    )
    isolated = run_fleet_campaign(
        episodes_per_service=episodes, share_knowledge=False, **FLEET_KWARGS
    )
    return shared, isolated


def test_shared_knowledge_beats_isolated(fleet_pair, benchmark):
    shared, isolated = fleet_pair
    print()
    print("=== sharing ON ===")
    print(format_fleet(shared))
    print()
    print("=== sharing OFF (ablation) ===")
    print(format_fleet(isolated))

    # Both arms executed the identical strike schedule.
    assert [s.kinds for s in shared.schedule] == [
        s.kinds for s in isolated.schedule
    ]
    assert shared.total_reports == isolated.total_reports

    # The ablation claim: exchanged signatures cut the search cost.
    assert shared.mean_attempts < isolated.mean_attempts
    assert shared.escalation_rate <= isolated.escalation_rate
    assert shared.knowledge_entries > 0
    assert shared.knowledge_absorbed > 0
    assert isolated.knowledge_entries == 0

    # Kernel: one replica's per-round foreign-update scan.
    kb = SharedKnowledgeBase()
    rng = np.random.default_rng(0)
    for i in range(512):
        kb.contribute(
            i % 4, rng.normal(size=40), ALL_FIX_KINDS[i % len(ALL_FIX_KINDS)]
        )
    benchmark(lambda: kb.updates_window(0, 256, kb.n_entries))


def test_parallel_matches_serial_bit_for_bit():
    serial = run_fleet_campaign(
        n_services=2, episodes_per_service=2, seed=7, workers=1
    )
    sharded = run_fleet_campaign(
        n_services=2, episodes_per_service=2, seed=7, workers=2
    )
    assert serial.total_reports == sharded.total_reports
    assert serial.mean_attempts == sharded.mean_attempts
    assert serial.escalation_rate == sharded.escalation_rate
    assert serial.knowledge_entries == sharded.knowledge_entries


def test_parallel_speedup_at_four_workers():
    cores = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity"
    ) else (os.cpu_count() or 1)
    if cores < 4:
        pytest.skip(
            f"only {cores} CPU core(s) available; the 4-worker speedup "
            "needs hardware parallelism to be measurable"
        )
    episodes = scale(8, 16)
    serial = run_fleet_campaign(
        episodes_per_service=episodes, workers=1, **FLEET_KWARGS
    )
    parallel = run_fleet_campaign(
        episodes_per_service=episodes, workers=4, **FLEET_KWARGS
    )
    speedup = serial.wall_clock_s / parallel.wall_clock_s
    print(
        f"\nserial {serial.wall_clock_s:.1f}s, "
        f"parallel {parallel.wall_clock_s:.1f}s, speedup {speedup:.2f}x"
    )
    assert parallel.mean_attempts == serial.mean_attempts
    assert speedup > 1.5
