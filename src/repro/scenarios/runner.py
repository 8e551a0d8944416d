"""Scenario campaign runner and trace replay drivers.

``run_scenario`` composes a pack's workload shape, fault schedule, and
SLO profile into a standard fault-injection campaign (the same episode
engine as :func:`repro.experiments.campaign.run_campaign`), optionally
recording the full telemetry trace.  ``replay_campaign`` /
``replay_fleet_campaign`` drive a fresh healing loop over a recorded
trace: with the recorded approach the campaign statistics reproduce
exactly; with a different approach the two are compared open-loop on
byte-identical telemetry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.approaches.base import FixIdentifier
from repro.core.approaches.manual import ManualRuleBased
from repro.core.approaches.signature import SignatureApproach
from repro.core.synopses.nearest_neighbor import NearestNeighborSynopsis
from repro.experiments.campaign import CampaignResult, run_campaign
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.healing.loop import SelfHealingLoop
from repro.scenarios.packs import (
    ScenarioPack,
    build_scenario_service,
    get_scenario,
)
from repro.scenarios.trace import (
    ReplayFault,
    ReplayInjector,
    ReplayService,
    TraceExhausted,
    TraceRecorder,
    _FixCursor,
    load_trace,
    trace_sha256,
)

__all__ = [
    "APPROACH_FACTORIES",
    "ScenarioRunResult",
    "build_approach",
    "format_scenario",
    "replay_campaign",
    "replay_fleet_campaign",
    "run_scenario",
]

# Approaches a replayed trace can rebuild by name.  Factories, not
# instances: every run gets a fresh, untrained synopsis.
APPROACH_FACTORIES: dict[str, Callable[[], FixIdentifier]] = {
    "signature": lambda: SignatureApproach(
        NearestNeighborSynopsis(ALL_FIX_KINDS)
    ),
    "manual": lambda: ManualRuleBased(),
}


def build_approach(name: str) -> FixIdentifier:
    """Instantiate a fix-identification approach by factory name."""
    if name not in APPROACH_FACTORIES:
        known = ", ".join(sorted(APPROACH_FACTORIES))
        raise KeyError(f"unknown approach {name!r} (known: {known})")
    return APPROACH_FACTORIES[name]()


def _resolve_approach(
    approach: str | FixIdentifier,
) -> tuple[FixIdentifier, str]:
    """An approach instance and the name a trace records for it."""
    if isinstance(approach, str):
        return build_approach(approach), approach
    return approach, getattr(approach, "name", type(approach).__name__)


@dataclass
class ScenarioRunResult:
    """One scenario campaign (live or replayed) plus provenance.

    Attributes:
        scenario: pack name.
        seed: campaign seed.
        approach: approach factory name (or the instance's name).
        result: the campaign's episode reports and counters.
        trace_path / trace_sha256: set when the run was recorded or
            replayed from a trace.
        events_path / events_sha256: set when the run recorded a
            telemetry event log (``--events``); the SHA-256 is of the
            canonical JSONL bytes, which are seed-deterministic.
        replayed: True when this result came from a trace replay.
        slo_flags: each tick's ``slo_violated`` bit, in tick order, as
            the live service reported it (empty for a replay).
    """

    scenario: str
    seed: int
    approach: str
    result: CampaignResult
    trace_path: str | None = None
    trace_sha256: str | None = None
    events_path: str | None = None
    events_sha256: str | None = None
    replayed: bool = False
    slo_flags: list[bool] = field(default_factory=list)


def run_scenario(
    name: str | ScenarioPack,
    seed: int = 7,
    n_episodes: int | None = None,
    approach: str | FixIdentifier = "signature",
    record_path: str | None = None,
    events_path: str | None = None,
    threshold: int = 5,
) -> ScenarioRunResult:
    """Run one scenario pack as a fault-injection campaign.

    Args:
        name: scenario pack name (see :func:`list_scenarios`) or a
            prebuilt :class:`ScenarioPack` — how fuzzer-generated
            scenarios run through the standard driver.
        seed: campaign seed; with the same name it fully determines
            the campaign (and the recorded trace bytes).
        n_episodes: fault episodes; defaults to the pack's size.
        approach: approach factory name, or a prebuilt instance
            (instances record their ``name`` but can only be replayed
            if that name is a known factory).
        record_path: write the full telemetry trace here (JSONL).
        events_path: write the flight-recorder event log here (JSONL,
            ``repro-events/1``); bytes are a pure function of
            (scenario, seed, approach).
        threshold: forwarded to the healing loop.
    """
    pack = get_scenario(name) if isinstance(name, str) else name
    n = n_episodes if n_episodes is not None else pack.n_episodes
    service = build_scenario_service(pack, seed=seed)
    approach_obj, approach_name = _resolve_approach(approach)

    slo_flags: list[bool] = []
    service.tick_hooks.append(
        lambda snapshot: slo_flags.append(bool(snapshot.slo_violated))
    )
    recorder = None
    injector = None
    if record_path is not None:
        recorder = TraceRecorder(record_path)
        recorder.set_header(
            kind="campaign",
            scenario=pack.name,
            seed=seed,
            n_episodes=n,
            approach=approach_name,
            threshold=threshold,
            # Campaigns always collect EJB-level data; replay reads it.
            include_invasive=True,
        )
        injector = recorder.attach(service)

    telemetry = None
    if events_path is not None:
        from repro.telemetry import HealingTelemetry

        telemetry = HealingTelemetry(member=0)

    faults = pack.build_faults(seed, n)
    result = run_campaign(
        approach_obj,
        n_episodes=n,
        seed=seed,
        faults=faults,
        threshold=threshold,
        max_episode_wait=pack.max_episode_wait,
        settle_ticks=pack.settle_ticks,
        service=service,
        injector=injector,
        telemetry=telemetry,
    )

    sha = None
    if recorder is not None:
        recorder.summary(0, result.injected, result.undetected)
        sha = recorder.close()
    events_sha = None
    if telemetry is not None:
        from repro.telemetry import dump_events

        events_sha = dump_events(
            events_path,
            {
                "kind": "campaign",
                "scenario": pack.name,
                "seed": seed,
                "approach": approach_name,
                "n_episodes": n,
            },
            [telemetry.events],
        )
    return ScenarioRunResult(
        scenario=pack.name,
        seed=seed,
        approach=approach_name,
        result=result,
        trace_path=record_path,
        trace_sha256=sha,
        events_path=events_path,
        events_sha256=events_sha,
        slo_flags=slo_flags,
    )


# ----------------------------------------------------------------------
# Replay.
# ----------------------------------------------------------------------


def _drive_replay(
    loop: SelfHealingLoop, faults: list[ReplayFault], absorbs: list[dict]
) -> None:
    """Advance a replay loop to trace end, healing where the recording did.

    The recording campaign heals only inside an episode
    (:func:`~repro.experiments.campaign.run_episode`): from a
    fault's injection until the first heal after it completes, or until
    the episode gives up and clears that fault as ``undetected``.
    Warm-up and the settling between episodes step the loop without
    healing, so a false alarm raised there goes unanswered.  The replay
    opens and closes the same episode windows from the recorded
    ``inject`` and ``clear`` lines.  (A fault that clears itself before
    its episode gives up leaves no ``undetected`` line, and the trace
    does not record the wait budget; its window then stays open until
    a heal completes or the next injection.)

    Absorption barriers were recorded at quiescent ticks (between
    episodes), so applying each one as the replay clock reaches its
    recorded tick reproduces the recorded knowledge state.
    """
    from repro.fleet.knowledge import KnowledgeEntry

    events = deque(sorted(absorbs, key=lambda e: int(e["t"])))
    injections = deque(sorted(faults, key=lambda f: f.injected_at))
    episode: ReplayFault | None = None
    try:
        while True:
            now = loop.service.tick
            while events and now >= int(events[0]["t"]):
                event = events.popleft()
                entries = [
                    KnowledgeEntry(
                        seq=-1,
                        source=-1,
                        symptoms=np.asarray(e["symptoms"], dtype=float),
                        fix_kind=e["fix_kind"],
                        origin=e.get("origin", "healed"),
                    )
                    for e in event["entries"]
                ]
                if entries:
                    loop.approach.absorb(entries)
            while injections and now >= injections[0].injected_at:
                episode = injections.popleft()
            if (
                episode is not None
                and episode.cleared_by == "undetected"
                and now >= episode.cleared_at
            ):
                episode = None
            _, failure = loop.step_once()
            if failure is not None and episode is not None:
                loop.heal(failure)
                episode = None
    except TraceExhausted:
        pass


def _replay_member(
    header: dict,
    member,
    approach: FixIdentifier,
    seed: int,
    threshold: int,
    include_invasive: bool,
) -> CampaignResult:
    """Drive one recorded member's telemetry through a fresh loop."""
    cursor = _FixCursor(member.fixes)
    service = ReplayService(
        member.ticks,
        cursor,
        caller_names=header.get("caller_names", []),
        callee_names=header.get("callee_names", []),
        beans=header.get("beans", []),
        capacities=header.get("capacities"),
    )
    injector = ReplayInjector(member.faults, cursor)
    loop = SelfHealingLoop(
        service,  # type: ignore[arg-type] — duck-typed replay stand-in
        approach,
        injector=injector,  # type: ignore[arg-type]
        threshold=threshold,
        include_invasive=include_invasive,
        seed=seed,
    )
    _drive_replay(loop, member.faults, member.absorbs)
    return CampaignResult(
        reports=list(loop.reports),
        injected=member.injected,
        undetected=member.undetected,
        total_ticks=service.tick,
    )


def replay_campaign(
    path: str, approach: str | FixIdentifier | None = None
) -> ScenarioRunResult:
    """Replay a recorded single-service scenario trace.

    With ``approach=None`` the recorded approach is rebuilt (fresh and
    untrained, exactly as the recording started) and the campaign
    statistics reproduce the original run.  Passing a different
    approach compares it open-loop on the identical telemetry.
    """
    header, members = load_trace(path)
    if header.get("kind") != "campaign":
        raise ValueError(
            f"{path}: expected a single-service campaign trace, "
            f"got kind={header.get('kind')!r}"
        )
    approach_obj, approach_name = _resolve_approach(
        header["approach"] if approach is None else approach
    )

    member = members.get(0)
    if member is None:
        raise ValueError(f"{path}: trace has no member-0 telemetry")
    result = _replay_member(
        header,
        member,
        approach_obj,
        seed=int(header["seed"]),
        threshold=int(header["threshold"]),
        include_invasive=bool(header["include_invasive"]),
    )
    return ScenarioRunResult(
        scenario=header["scenario"],
        seed=int(header["seed"]),
        approach=approach_name,
        result=result,
        trace_path=path,
        trace_sha256=trace_sha256(path),
        replayed=True,
    )


def replay_fleet_campaign(path: str) -> list[CampaignResult]:
    """Replay a recorded fleet trace into per-replica campaigns.

    Each member's telemetry is driven through a fresh
    knowledge-sharing loop; recorded absorption barriers re-seed the
    local synopses at the same clock positions, so per-replica and
    pooled statistics reproduce the recording.
    """
    from repro.core.approaches.signature import SignatureApproach
    from repro.fleet.knowledge import KnowledgeSharingApproach

    header, members = load_trace(path)
    if header.get("kind") != "fleet":
        raise ValueError(
            f"{path}: expected a fleet trace, got kind={header.get('kind')!r}"
        )
    member_seeds = header["member_seeds"]
    results: list[CampaignResult] = []
    for index in sorted(members):
        approach = KnowledgeSharingApproach(
            SignatureApproach(NearestNeighborSynopsis(ALL_FIX_KINDS)),
            source=index,
        )
        results.append(
            _replay_member(
                header,
                members[index],
                approach,
                seed=int(member_seeds[index]),
                threshold=int(header["threshold"]),
                include_invasive=bool(header["include_invasive"]),
            )
        )
    return results


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------


def format_scenario(run: ScenarioRunResult) -> str:
    """Human-readable scenario campaign statistics.

    Deterministic for a given campaign: a recorded run and its replay
    print identical statistics blocks (the acceptance check the trace
    tests automate).
    """
    result = run.result
    lines = [
        (
            f"Scenario {run.scenario!r} (seed={run.seed}, "
            f"approach={run.approach}): "
            f"{len(result.reports)} episodes healed, "
            f"{result.undetected} undetected of {result.injected} injected"
        ),
        (
            f"  escalation rate {result.escalation_rate:.2f}, "
            f"mean attempts {result.mean_attempts:.2f}"
        ),
        (
            f"  detection {result.mean_detection_ticks():.1f} ticks, "
            f"recovery {result.mean_recovery_ticks():.1f} ticks"
        ),
    ]
    by_category = result.by_category()
    if by_category:
        lines.append(
            "  by cause: "
            + ", ".join(
                f"{category}={len(reports)}"
                for category, reports in sorted(by_category.items())
            )
        )
    fixes: dict[str, int] = {}
    for report in result.reports:
        if report.successful_fix is not None:
            fixes[report.successful_fix] = fixes.get(report.successful_fix, 0) + 1
    if fixes:
        lines.append(
            "  fixes: "
            + ", ".join(
                f"{kind}={count}" for kind, count in sorted(fixes.items())
            )
        )
    return "\n".join(lines)
