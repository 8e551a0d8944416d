"""Round-granular load balancing with failover spill.

The fleet's replicas nominally share traffic equally.  When one
replica spends a round mostly SLO-violated, a production balancer
drains it and the survivors absorb its share — which is precisely how
a single-replica fault *cascades* into fleet-wide stress (the
failover-induced overload scenario).  The balancer here models that at
round granularity: after each round it computes a target traffic
multiplier per replica from the round's downtime fractions, and the
targets are applied *multiplicatively* on top of whatever the
workload's current rate multiplier is, so fault-imposed surges (e.g.
:class:`~repro.faults.infra_faults.LoadSurgeFault`) compose with
balancer decisions instead of being clobbered by them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FleetLoadBalancer"]


class FleetLoadBalancer:
    """Computes per-replica traffic multipliers from round health.

    Args:
        n_services: replicas behind the balancer.
        degraded_threshold: downtime fraction above which a replica is
            considered degraded and partially drained next round.
        spill_fraction: share of a degraded replica's traffic shifted
            onto the healthy survivors.
    """

    def __init__(
        self,
        n_services: int,
        degraded_threshold: float = 0.25,
        spill_fraction: float = 0.5,
    ) -> None:
        if n_services < 1:
            raise ValueError(f"n_services must be >= 1, got {n_services}")
        if not 0.0 <= spill_fraction <= 1.0:
            raise ValueError(
                f"spill_fraction must be in [0, 1], got {spill_fraction}"
            )
        self.n_services = n_services
        self.degraded_threshold = degraded_threshold
        self.spill_fraction = spill_fraction

    def rebalance(self, downtime_fractions: list[float]) -> list[float]:
        """Target traffic multiplier per replica for the next round.

        Healthy fleet -> all 1.0.  Each degraded replica sheds
        ``spill_fraction`` of its unit share; the shed load is split
        evenly across the healthy survivors (their multiplier exceeds
        1.0 — the failover overload).  A fully degraded fleet has
        nowhere to shift traffic, so everyone keeps their share.

        Accepts any float sequence and computes the targets with one
        vectorized pass; the arithmetic matches the scalar formulation
        operation for operation.  The coordinator alone computes them,
        for any number of workers.
        """
        fractions = np.asarray(downtime_fractions, dtype=np.float64)
        if fractions.shape != (self.n_services,):
            raise ValueError(
                f"expected {self.n_services} fractions, "
                f"got {len(fractions)}"
            )
        degraded = fractions >= self.degraded_threshold
        n_degraded = int(degraded.sum())
        n_healthy = self.n_services - n_degraded
        if n_degraded == 0 or n_healthy == 0:
            return [1.0] * self.n_services
        shed_total = self.spill_fraction * n_degraded
        targets = np.where(
            degraded,
            1.0 - self.spill_fraction,
            1.0 + shed_total / n_healthy,
        )
        return targets.tolist()
