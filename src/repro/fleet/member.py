"""One fleet replica: service + injector + healing loop bundle.

A member is the unit the fleet runner shards across worker processes:
it is fully self-contained (its own simulator, monitoring harness,
FixSym synopsis, and RNG streams derived from the fleet seed and its
index), so each worker builds its own members and never ships one;
and it is advanced one strike slot per *round*, so that knowledge
exchange and load rebalancing happen at deterministic barriers
regardless of how many workers execute the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.approaches.signature import SignatureApproach
from repro.core.synopses.nearest_neighbor import NearestNeighborSynopsis
from repro.experiments.campaign import CampaignResult, run_episode, settle
from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.fleet.knowledge import KnowledgeEntry, KnowledgeSharingApproach
from repro.healing.loop import SelfHealingLoop
from repro.simulator.config import ServiceConfig
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService

__all__ = ["FleetMember", "FleetRoundStats"]

# Healthy ticks a spared replica settles for in its round (the episode
# engine's default), giving up after twice as many.
_SPARE_SETTLE_TICKS = 30


@dataclass
class FleetRoundStats:
    """What one member reports back at a round barrier."""

    index: int
    downtime_fraction: float = 0.0
    contributions: list[tuple[np.ndarray, str, str]] = field(
        default_factory=list
    )
    absorbed: int = 0


class FleetMember:
    """One replica's full healing stack, advanced round by round.

    Every replica is a stock-sized service healed by the signature
    approach over a nearest neighbor synopsis (the cheapest to keep
    current online), wrapped for knowledge sharing.

    Args:
        index: replica position in the fleet (also its knowledge-base
            source id).
        seed: fleet root seed; the member derives its own service seed
            from ``(seed, "fleet-member", index)`` so replicas see
            statistically independent workloads and noise.
        scenario: a :class:`repro.scenarios.packs.ScenarioPack` that
            shapes this member's workload/SLO (None keeps the plain
            constant-rate service).
        recorder: a :class:`repro.scenarios.trace.TraceRecorder` to
            capture this member's telemetry, fault lifecycle, and
            knowledge absorptions (in-process campaigns only).
        telemetry: when True, attach a flight recorder
            (:class:`repro.telemetry.HealingTelemetry`) to the healing
            loop.  A bool rather than an instance so the flag ships
            cleanly to worker processes — each member builds its own
            hub, and the event bytes are identical for any worker
            count.
    """

    def __init__(
        self,
        index: int,
        seed: int,
        scenario=None,
        recorder=None,
        telemetry: bool = False,
    ) -> None:
        self.index = index
        member_seed = int(
            derive_rng(seed, "fleet-member", index).integers(2**31)
        )
        self.member_seed = member_seed
        if scenario is not None:
            from repro.scenarios.packs import build_scenario_service

            self.service = build_scenario_service(scenario, seed=member_seed)
        else:
            self.service = MultitierService(ServiceConfig(seed=member_seed))
        self.recorder = recorder
        if recorder is not None:
            self.injector = recorder.attach(self.service, member=index)
        else:
            self.injector = FaultInjector(self.service)
        self.approach = KnowledgeSharingApproach(
            SignatureApproach(NearestNeighborSynopsis(ALL_FIX_KINDS)),
            source=index,
        )
        telemetry_obj = None
        if telemetry:
            from repro.telemetry import HealingTelemetry

            telemetry_obj = HealingTelemetry(member=index)
        self.loop = SelfHealingLoop(
            self.service,
            self.approach,
            injector=self.injector,
            seed=member_seed,
            telemetry=telemetry_obj,
        )
        self.telemetry = telemetry_obj
        self.result = CampaignResult()
        self.lb_factor = 1.0
        self._warmed = False

    def set_lb_factor(self, target: float) -> None:
        """Apply the balancer's traffic multiplier for the next round.

        Multiplicative patch against the previous balancer factor so
        fault-imposed rate multipliers survive rebalancing.
        """
        if target <= 0:
            raise ValueError(f"lb factor must be > 0, got {target}")
        self.service.workload.rate_multiplier *= target / self.lb_factor
        self.lb_factor = target

    def absorb(self, entries: list[KnowledgeEntry]) -> int:
        """Merge foreign fleet knowledge into the local synopsis."""
        if not entries:
            return 0
        if self.recorder is not None:
            self.recorder.absorb(self.index, self.service.tick, entries)
        return self.approach.absorb(entries)

    def run_round(self, fault: Fault | None) -> FleetRoundStats:
        """Run one strike slot; report at the barrier.

        A ``None`` slot (this replica spared by the strike) still
        settles the service so replicas stay roughly clock-aligned
        across the fleet.  Downtime fraction is the share of the
        round's ticks the replica spent between fault injection and
        verified recovery — the health signal the balancer rebalances
        on.
        """
        if not self._warmed:
            self.loop.warmup()
            self._warmed = True
        start_tick = self.service.tick
        reports_before = len(self.result.reports)
        if fault is None:
            settle(
                self.loop,
                _SPARE_SETTLE_TICKS,
                max_ticks=2 * _SPARE_SETTLE_TICKS,
            )
        else:
            run_episode(self.loop, self.injector, fault, self.result)
        elapsed = self.service.tick - start_tick
        self.result.total_ticks = self.service.tick
        downtime = sum(
            (
                report.recovered_at
                if report.recovered_at is not None
                else self.service.tick
            )
            - report.injected_at
            for report in self.result.reports[reports_before:]
        )
        return FleetRoundStats(
            index=self.index,
            downtime_fraction=(
                min(1.0, downtime / elapsed) if elapsed > 0 else 0.0
            ),
            contributions=self.approach.drain(),
        )
