"""Fault-injection campaigns over the full healing stack.

A campaign repeatedly injects sampled faults into a live service run
by a :class:`SelfHealingLoop` and collects the episode reports — the
machinery behind the Figure 1/2 dependability study and the Table 2
approach comparison.  The per-episode engine (`run_episode`) is shared
with the fleet runner in :mod:`repro.fleet`, which interleaves many
such campaigns behind a load balancer, and with the scenario packs in
:mod:`repro.scenarios`, which feed prebuilt shaped services and
deterministic fault schedules through the ``service`` / ``injector`` /
``faults`` hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.approaches.base import FixIdentifier
from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import sample_fault_for_category
from repro.healing.loop import SelfHealingLoop
from repro.healing.report import EpisodeReport
from repro.simulator.config import ServiceConfig
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.healing import HealingTelemetry

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_episode",
    "settle",
]


@dataclass
class CampaignResult:
    """All episodes from one campaign plus bookkeeping.

    ``total_ticks`` counts every service tick spent producing the
    result (warmup, episodes, settling) — the denominator the perf
    harness uses for ticks/sec.
    """

    reports: list[EpisodeReport] = field(default_factory=list)
    injected: int = 0
    undetected: int = 0
    total_ticks: int = 0

    def by_category(self) -> dict[str, list[EpisodeReport]]:
        grouped: dict[str, list[EpisodeReport]] = {}
        for report in self.reports:
            grouped.setdefault(report.fault_category, []).append(report)
        return grouped

    @property
    def escalation_rate(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.escalated for r in self.reports) / len(self.reports)

    @property
    def mean_attempts(self) -> float:
        if not self.reports:
            return 0.0
        return float(np.mean([r.attempts for r in self.reports]))

    def mean_recovery_ticks(self) -> float:
        recovered = [
            r.recovery_ticks for r in self.reports if r.recovery_ticks is not None
        ]
        return float(np.mean(recovered)) if recovered else float("nan")

    def mean_detection_ticks(self) -> float:
        """Mean detection latency (detected_at − injected_at).

        The Figure 2 detection dimension — "over 75% of the time ...
        is spent detecting the failure" — reported uniformly for
        single-service and fleet campaigns.
        """
        if not self.reports:
            return float("nan")
        return float(np.mean([r.detection_ticks for r in self.reports]))


def settle(
    loop: SelfHealingLoop, settle_ticks: int, max_ticks: int = 400
) -> None:
    """Run until ``settle_ticks`` consecutive compliant ticks pass.

    Episode hygiene between injections: baselines refresh and detector
    debounce drains.  Every tick goes through ``loop.step_once`` so the
    approach sees the same unbroken metric stream the harness does
    (windowed approaches would otherwise observe a gap between
    episodes).
    """
    streak = 0
    for _ in range(max_ticks):
        snapshot, _ = loop.step_once()
        streak = streak + 1 if not snapshot.slo_violated else 0
        if streak >= settle_ticks:
            break


def run_episode(
    loop: SelfHealingLoop,
    injector: FaultInjector,
    fault: Fault,
    result: CampaignResult,
    max_episode_wait: int = 150,
    settle_ticks: int = 30,
) -> bool:
    """Inject one fault and drive it to a concluded episode.

    Appends the episode report to ``result`` (or counts the fault as
    undetected), clears residue, and settles the service.  Undetected
    faults settle too (unlike the pre-fleet campaign loop): the
    cleared fault can leave transients, and the next episode should
    start from a refreshed baseline either way.  Returns True when a
    report was produced.
    """
    service = loop.service
    injector.inject(fault, service.tick)
    result.injected += 1

    # Run until this fault's episode completes (or it proves
    # undetectable within the wait budget).
    reports_before = len(loop.reports)
    waited = 0
    while len(loop.reports) == reports_before and waited < max_episode_wait:
        loop.run(5)
        waited += 5
    detected = len(loop.reports) > reports_before
    if not detected:
        # Never violated the SLO: clear and move on.
        injector.clear_all(service.tick, cleared_by="undetected")
        result.undetected += 1
        if loop.telemetry is not None:
            loop.telemetry.record_undetected(fault.kind, service.tick)
    else:
        result.reports.append(loop.reports[-1])
        # Episode hygiene: a fault can leave the service SLO-compliant
        # without being repaired (e.g. a tier reboot masks a heap
        # misconfiguration).  Clear residue so episodes stay
        # independent — the eventual manual cleanup every operations
        # team performs.
        if injector.any_active:
            injector.clear_all(service.tick, cleared_by="posthoc-cleanup")

    # Let the service settle (and baselines refresh) between episodes.
    settle(loop, settle_ticks)
    return detected


def run_campaign(
    approach: FixIdentifier,
    n_episodes: int,
    seed: int,
    category_mix: dict[str, float] | None = None,
    faults: list[Fault] | None = None,
    threshold: int = 5,
    max_episode_wait: int = 150,
    settle_ticks: int = 30,
    service: MultitierService | None = None,
    injector: FaultInjector | None = None,
    telemetry: "HealingTelemetry | None" = None,
) -> CampaignResult:
    """Inject ``n_episodes`` faults, healing each with ``approach``.

    Args:
        approach: the fix-identification approach under test.
        n_episodes: failures to inject (undetected ones are retried
            with a new sample and counted separately).
        seed: campaign seed.
        category_mix: probability per failure-cause category (the
            Figure 1 service profiles); mutually exclusive with
            ``faults``.
        faults: explicit fault schedule (overrides sampling).
        threshold: FixSym/approach retry threshold (Figure 3).
        max_episode_wait: ticks to wait for detection before skipping.
        settle_ticks: healthy ticks required between episodes.
        service: prebuilt service — how scenario packs supply shaped
            workloads, SLO profiles, and tick hooks; defaults to a
            stock service seeded with ``seed``.
        injector: prebuilt injector on ``service`` (e.g. a recording
            injector); defaults to a fresh :class:`FaultInjector`.
        telemetry: optional flight recorder attached to the healing
            loop; purely observational (results are identical with it
            on or off).
    """
    if service is None:
        service = MultitierService(ServiceConfig(seed=seed))
    if injector is None:
        injector = FaultInjector(service)
    start_tick = service.tick
    loop = SelfHealingLoop(
        service,
        approach,
        injector=injector,
        threshold=threshold,
        seed=seed,
        telemetry=telemetry,
    )
    loop.warmup()

    fault_rng = derive_rng(seed, "campaign-faults")
    categories = None
    weights = None
    if category_mix is not None:
        categories = sorted(category_mix)
        weights = np.asarray([category_mix[c] for c in categories])
        weights = weights / weights.sum()

    result = CampaignResult()
    schedule = list(faults) if faults is not None else None
    attempts_left = n_episodes * 3

    while len(result.reports) < n_episodes and attempts_left > 0:
        attempts_left -= 1
        if schedule is not None:
            if not schedule:
                break
            fault = schedule.pop(0)
        elif categories is not None:
            category = str(fault_rng.choice(categories, p=weights))
            fault = sample_fault_for_category(category, fault_rng)
        else:
            from repro.faults.scenarios import sample_fig4_fault

            fault = sample_fig4_fault(fault_rng)

        run_episode(
            loop,
            injector,
            fault,
            result,
            max_episode_wait=max_episode_wait,
            settle_ticks=settle_ticks,
        )
    result.total_ticks = service.tick - start_tick
    return result
