"""Fleet layer: many multitier services healing behind one balancer.

The paper heals one multitier service at a time; this package scales
the same machinery to a *fleet* of replicas:

* :mod:`repro.fleet.knowledge` — a shared knowledge base through which
  the replicas' FixSym synopses exchange learned (symptoms, fix)
  signatures, so a fix discovered on one deployment accelerates
  healing on the rest (with an ablation switch to isolate them);
* :mod:`repro.fleet.loadbalancer` — round-granular traffic weights
  with failover spill, the channel through which one replica's outage
  cascades into overload on the survivors;
* :mod:`repro.fleet.member` — one replica's service + injector +
  healing loop bundle, advanced in slot-aligned rounds;
* :mod:`repro.fleet.campaign` — the fleet campaign runner: correlated
  fault schedules, deterministic multiprocessing shards, and
  fleet-level dependability aggregation.
"""

from repro.fleet.campaign import (
    aggregate_campaigns,
    run_fleet_campaign,
    weighted_mean,
)
from repro.fleet.knowledge import SharedKnowledgeBase
from repro.fleet.loadbalancer import FleetLoadBalancer

__all__ = [
    "FleetLoadBalancer",
    "SharedKnowledgeBase",
    "aggregate_campaigns",
    "run_fleet_campaign",
    "weighted_mean",
]
