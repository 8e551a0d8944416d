"""Database tier: queueing wrapper around the execution engine.

The engine (:mod:`repro.database.engine`) prices each query class;
this tier turns those prices into request-visible response times by
running the aggregate query stream through the tier's queueing model
(DB worker slots) and attributing per-request database time back to
each interaction type via its blueprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.database.engine import DatabaseEngine, DatabaseTickResult
from repro.simulator.ejb import RequestBlueprint
from repro.simulator.tiers.base import QueueingTier, TierResult

__all__ = ["DatabaseTier", "DatabaseTierResult"]


@dataclass(slots=True)
class DatabaseTierResult:
    """Database-tier output for one tick."""

    tier: TierResult
    engine: DatabaseTickResult
    db_ms_per_type: dict[str, float]


class DatabaseTier(QueueingTier):
    """MySQL-shaped tier: engine costs + worker-slot queueing."""

    def __init__(
        self,
        workers: int,
        engine: DatabaseEngine,
        blueprints: dict[str, RequestBlueprint],
        rng: np.random.Generator,
    ) -> None:
        super().__init__("db", workers)
        self.engine = engine
        self.blueprints = blueprints
        self._rng = rng
        # Query lists per interaction type, unpacked once for the
        # per-tick attribution loop.
        self._bp_queries = {
            request_type: tuple(blueprint.queries.items())
            for request_type, blueprint in blueprints.items()
        }

    def process(
        self,
        query_counts: dict[str, int],
        request_counts: dict[str, int],
        now: int,
    ) -> DatabaseTierResult:
        """Execute the tick's query stream and attribute time to requests."""
        engine_result = self.engine.process_tick(query_counts, now)
        return self.attribute(engine_result, query_counts, request_counts)

    def attribute(
        self,
        engine_result: DatabaseTickResult,
        query_counts: dict[str, int],
        request_counts: dict[str, int],
    ) -> DatabaseTierResult:
        """Turn priced query classes into per-request-type database time.

        Split out of :meth:`process` so the fused fleet driver can
        price many members' query streams in one batched engine pass
        and feed each result back through the identical attribution
        and queueing code.
        """
        db_ms_per_type: dict[str, float] = {}
        pc_get = engine_result.per_class_ms.get
        counts_get = request_counts.get
        # A Python float per call from a Generator or a BufferedNormal.
        normal = self._rng.normal
        for request_type, queries in self._bp_queries.items():
            if counts_get(request_type, 0) <= 0:
                continue
            total = 0.0
            for query, per_request in queries:
                # Unknown or idle query class: flat nominal cost.
                total += pc_get(query, 0.3) * per_request
            db_ms_per_type[request_type] = total * abs(normal(1.0, 0.04))

        # Queueing at the DB worker slots, driven by aggregate demand.
        total_queries = sum(query_counts.values())
        arrival_rate = float(total_queries)  # queries arrive within 1s tick
        tier = self.queueing(arrival_rate, engine_result.mean_service_ms)
        return DatabaseTierResult(
            tier=tier, engine=engine_result, db_ms_per_type=db_ms_per_type
        )

    def reboot(self) -> None:
        """Database restart: release locks, clear degradation."""
        self.engine.restart(now=0)
        self.reboot_count += 1
