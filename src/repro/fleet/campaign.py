"""Fleet campaigns: correlated faults, shared knowledge, parallelism.

The runner advances every replica through the same slot-aligned
schedule, one strike slot per *round*.  A round is the unit of
parallelism **and** the knowledge/rebalancing barrier:

1. before a round, each replica absorbs the signatures its peers
   published in earlier rounds and applies the balancer's traffic
   target;
2. during a round, replicas are completely independent — so the round
   can be sharded across worker processes (`multiprocessing`), each
   shard deterministic because every random stream is derived from
   ``(seed, "fleet-member", index)`` via :func:`derive_rng`;
3. at the barrier, the coordinator merges contributions into the
   shared knowledge base **in replica order** and recomputes balancer
   targets.

Because exchange only happens at barriers, the aggregate result is a
pure function of ``(seed, fleet shape)`` — identical for 1 worker or
8, which is what makes the parallel speedup measurable against a
bit-identical serial baseline.

Both runners share the round loop in :func:`run_fleet_campaign` and
the shard round, :meth:`_Shard.run_round`; only the dispatch differs.
``workers=1`` runs one shard in-process against the coordinator's own
knowledge base.  The sharded runner (:class:`_WorkerPool`) keeps one
shard per worker process, each reading a replica of that base, and
sends every worker one message per round over its Pipe: the
watermark, the round's slot, the balancer targets and the entries
merged since the previous round.  See ``docs/performance.md`` ("Fleet
transport") for the protocol and its measured traffic.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.campaign import CampaignResult
from repro.faults.correlated import (
    FleetStrike,
    build_correlated_schedule,
    per_service_queues,
)
from repro.fleet.knowledge import SharedKnowledgeBase
from repro.fleet.loadbalancer import FleetLoadBalancer
from repro.fleet.member import FleetMember, FleetRoundStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.base import Fault
    from repro.scenarios.packs import ScenarioPack

__all__ = [
    "FleetResult",
    "FleetWorkerError",
    "aggregate_campaigns",
    "format_fleet",
    "run_fleet_campaign",
    "weighted_mean",
]


def weighted_mean(values: list[float], weights: list[float]) -> float:
    """Weighted mean that ignores empty/NaN shards.

    Shards contribute ``(value, weight)`` pairs; pairs with zero
    weight or a non-finite value (an empty shard's NaN statistic) are
    dropped.  Returns NaN when nothing contributes — the fleet-level
    convention for "no data", matching the per-campaign statistics.
    """
    if len(values) != len(weights):
        raise ValueError(
            f"{len(values)} values but {len(weights)} weights"
        )
    total = 0.0
    norm = 0.0
    for value, weight in zip(values, weights):
        if weight <= 0 or not math.isfinite(value):
            continue
        total += value * weight
        norm += weight
    return total / norm if norm > 0 else float("nan")


def aggregate_campaigns(results: list[CampaignResult]) -> CampaignResult:
    """Pool per-replica campaigns into one fleet-level campaign.

    Episode reports concatenate in replica order; injected/undetected
    counters add.  Statistics on the pooled result equal the
    report-count-weighted means of the per-replica statistics (the
    identity the aggregation tests pin down).
    """
    pooled = CampaignResult()
    for result in results:
        pooled.reports.extend(result.reports)
        pooled.injected += result.injected
        pooled.undetected += result.undetected
        pooled.total_ticks += result.total_ticks
    return pooled


@dataclass
class FleetResult:
    """Everything one fleet campaign produced.

    Attributes:
        per_service: one :class:`CampaignResult` per replica, in
            replica order.
        schedule: the fleet strike schedule that was executed.
        n_services / episodes_per_service / seed / workers /
        share_knowledge: the campaign shape, echoed for reports.
        knowledge_entries: signatures published to the shared base.
        knowledge_absorbed: foreign signatures merged into local
            synopses, summed over replicas.
        wall_clock_s: end-to-end runtime (the speedup numerator).
        scenario: scenario pack that shaped the campaign, if any.
        trace_path / trace_sha256: telemetry trace provenance when the
            campaign was recorded.
        events_path / events_sha256: flight-recorder event log
            provenance; the SHA-256 is of the canonical JSONL bytes,
            identical for any worker count.
        transport: per-campaign transport instrumentation — round
            count, knowledge-log entries/bytes, per-round watermark
            lag (deterministic), and wall-clock barrier-wait /
            dispatch-wait / merge timings (nondeterministic, which is
            why they live here and in BENCH_perf.json rather than in
            the event log).
    """

    per_service: list[CampaignResult]
    schedule: list[FleetStrike]
    n_services: int
    episodes_per_service: int
    seed: int
    workers: int
    share_knowledge: bool
    knowledge_entries: int = 0
    knowledge_absorbed: int = 0
    wall_clock_s: float = 0.0
    scenario: str | None = None
    trace_path: str | None = None
    trace_sha256: str | None = None
    events_path: str | None = None
    events_sha256: str | None = None
    transport: dict | None = field(default=None, repr=False, compare=False)
    _pooled: CampaignResult | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def pooled(self) -> CampaignResult:
        if self._pooled is None:
            self._pooled = aggregate_campaigns(self.per_service)
        return self._pooled

    @property
    def total_reports(self) -> int:
        return len(self.pooled.reports)

    @property
    def injected(self) -> int:
        return self.pooled.injected

    @property
    def undetected(self) -> int:
        return self.pooled.undetected

    @property
    def escalation_rate(self) -> float:
        return weighted_mean(
            [r.escalation_rate for r in self.per_service],
            [len(r.reports) for r in self.per_service],
        )

    @property
    def mean_attempts(self) -> float:
        return weighted_mean(
            [r.mean_attempts for r in self.per_service],
            [len(r.reports) for r in self.per_service],
        )

    def mean_detection_ticks(self) -> float:
        return weighted_mean(
            [r.mean_detection_ticks() for r in self.per_service],
            [len(r.reports) for r in self.per_service],
        )

    def mean_recovery_ticks(self) -> float:
        return weighted_mean(
            [
                r.mean_recovery_ticks()
                for r in self.per_service
            ],
            [
                sum(
                    report.recovery_ticks is not None
                    for report in r.reports
                )
                for r in self.per_service
            ],
        )

    def pattern_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for strike in self.schedule:
            counts[strike.pattern] = counts.get(strike.pattern, 0) + 1
        return counts


def _member_round(
    member: FleetMember,
    fault: Fault | None,
    external: list,
    lb_target: float,
) -> FleetRoundStats:
    """One member's round: rebalance, absorb peer knowledge, run."""
    member.set_lb_factor(lb_target)
    absorbed = member.absorb(external)
    stats = member.run_round(fault)
    stats.absorbed = absorbed
    return stats


class _Shard:
    """Some of the fleet's members, each with its knowledge cursor.

    The in-process runner keeps every member in one shard that reads
    the coordinator's own knowledge base.  The sharded runner keeps
    one shard per worker process, reading a replica of that base which
    the coordinator's round messages extend.
    """

    def __init__(
        self,
        indices,
        knowledge: SharedKnowledgeBase,
        *,
        seed: int,
        queues,
        member_kwargs: dict,
    ) -> None:
        self.members = {
            i: FleetMember(index=i, seed=seed, **member_kwargs)
            for i in indices
        }
        self.cursors = dict.fromkeys(self.members, 0)
        self.knowledge = knowledge
        self.queues = queues

    def run_round(
        self, slot: int, lb_targets: list[float]
    ) -> list[FleetRoundStats]:
        """Run strike slot ``slot`` on every member, in index order.

        Each member first absorbs the foreign entries it has not seen:
        the knowledge base holds exactly what was merged before the
        round.
        """
        round_stats = []
        for i, member in self.members.items():
            external, self.cursors[i] = self.knowledge.updates_window(
                i, self.cursors[i], self.knowledge.n_entries
            )
            round_stats.append(
                _member_round(
                    member, self.queues[i][slot], external, lb_targets[i]
                )
            )
        return round_stats

    def results(
        self,
    ) -> tuple[dict[int, CampaignResult], dict[int, list[dict]]]:
        """Each member's campaign result and telemetry events."""
        return (
            {i: member.result for i, member in self.members.items()},
            {
                i: member.telemetry.events
                for i, member in self.members.items()
                if member.telemetry is not None
            },
        )


# How often a blocked wait on the other end of a pipe checks that the
# other end is still alive.
_POLL_S = 0.25


def _next_message(conn, parent: int, timeout: float):
    """A worker's next message from its coordinator.

    Fork leaves every worker holding copies of the coordinator's pipe
    ends, so no EOF tells a worker that its coordinator died; it
    notices instead that it has a new parent.
    """
    deadline = time.monotonic() + timeout
    while not conn.poll(_POLL_S):
        if os.getppid() != parent:
            raise RuntimeError("fleet coordinator died")
        if time.monotonic() > deadline:
            raise TimeoutError("timed out waiting for the fleet coordinator")
    return conn.recv()


def _replicate(
    replica: SharedKnowledgeBase, entries: list, watermark: int
) -> None:
    """Append the entries a round message carries to a worker's replica.

    ``watermark`` is the coordinator's entry count; after the append
    the replica must hold as many.
    """
    for entry in entries:
        replica.contribute(
            entry.source, entry.symptoms, entry.fix_kind, entry.origin
        )
    if replica.n_entries != watermark:
        raise RuntimeError(
            f"knowledge replica holds {replica.n_entries} entries, "
            f"the coordinator {watermark}"
        )


def _fleet_worker(
    conn,
    make_shard,
    indices: list[int],
    share_knowledge: bool,
    barrier_timeout: float,
    profile_path: str | None,
) -> None:
    """Persistent shard process owning a subset of replicas.

    Simulator state never crosses the process boundary: the worker
    builds its members locally and keeps them for the whole campaign.
    Each round the coordinator sends ``("round", watermark, slot,
    lb_targets, entries)`` and the worker replies with its members'
    :class:`FleetRoundStats`; ``("finish",)`` asks for the members'
    campaign results.  ``entries`` are those the coordinator merged
    since the previous round: appended to the worker's replica of the
    knowledge base, they bring it to ``watermark`` entries, so members
    absorb exactly what the in-process runner's would.
    """
    # The process that started this worker: the coordinator, or under
    # ``forkserver`` the fork server, which exits with the coordinator.
    parent = os.getppid()
    profiler = None
    try:
        if profile_path is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        shard = make_shard(
            indices, SharedKnowledgeBase(enabled=share_knowledge)
        )
        dispatch_wait_s = 0.0
        while True:
            wait_started = time.perf_counter()
            # The coordinator's own wait on the slowest worker can take
            # up to ``barrier_timeout``; allowing twice that lets the
            # coordinator report a stall first, naming the worker.
            message = _next_message(conn, parent, 2 * barrier_timeout)
            if message[0] == "finish":
                break
            dispatch_wait_s += time.perf_counter() - wait_started
            _, watermark, slot, lb_targets, entries = message
            _replicate(shard.knowledge, entries, watermark)
            conn.send(("ok", shard.run_round(slot, lb_targets)))
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
            profiler = None
        results, events = shard.results()
        conn.send(
            (
                "ok",
                {
                    "results": results,
                    "events": events,
                    "dispatch_wait_s": dispatch_wait_s,
                },
            )
        )
    except Exception as exc:
        import traceback

        try:
            conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
        except OSError:
            pass
    finally:
        if profiler is not None:  # pragma: no cover - crash path
            profiler.disable()
        conn.close()


class FleetWorkerError(RuntimeError):
    """A worker of the sharded runner died or relayed its own error.

    A relayed error carries the worker's traceback in its message.  A
    member that raises in the in-process runner raises its own
    exception instead, so only runner failures have this type.
    """


def _worker_died(
    worker_id: int, process: multiprocessing.Process
) -> FleetWorkerError:
    """The error for a worker that exited without relaying one.

    The worker is dead or exiting, so the join returns at once; joining
    first makes ``exitcode`` available.
    """
    process.join(timeout=5)
    return FleetWorkerError(
        f"fleet worker {worker_id} died without reporting an error "
        f"(exitcode {process.exitcode})"
    )


def _recv(conn, worker_id: int, process: multiprocessing.Process):
    """One reply from worker ``worker_id``, relaying its failure.

    A worker that raised sends its traceback; one that was killed
    (e.g. SIGKILL) leaves only EOF on its pipe, or a reset if it died
    with a message unread.
    """
    try:
        status, payload = conn.recv()
    except (EOFError, OSError):
        raise _worker_died(worker_id, process) from None
    if status == "error":
        raise FleetWorkerError(f"fleet worker failed:\n{payload}")
    return payload


class _WorkerPool:
    """One :class:`_Shard` per worker process: the sharded dispatch.

    Entering the pool forks the workers.  Leaving it reaps them, and
    first terminates the survivors of a failed campaign: they wait for
    a next message that will never come.  Waits for a reply poll the
    pipe in ``_POLL_S`` slices; a dead worker raises the error it
    relayed, or :func:`_worker_died`, and a reply later than
    ``barrier_timeout`` raises ``TimeoutError``.
    """

    def __init__(
        self,
        shards: list[list[int]],
        make_shard,
        knowledge: SharedKnowledgeBase,
        barrier_timeout: float,
        profile_dir: str | None,
    ) -> None:
        self.shards = shards
        self.make_shard = make_shard
        self.knowledge = knowledge
        self.barrier_timeout = barrier_timeout
        self.profile_dir = profile_dir
        self.processes: list[multiprocessing.Process] = []
        self.connections = []
        self.sent = 0  # knowledge entries already sent to the workers
        self.barrier_wait_s: list[list[float]] = []
        self.dispatch_wait_s: list[float] = []

    def __enter__(self) -> _WorkerPool:
        try:
            for worker_id, shard in enumerate(self.shards):
                parent_conn, child_conn = multiprocessing.Pipe()
                profile_path = (
                    os.path.join(
                        self.profile_dir, f"fleet-worker-{worker_id}.prof"
                    )
                    if self.profile_dir is not None
                    else None
                )
                process = multiprocessing.Process(
                    target=_fleet_worker,
                    args=(
                        child_conn,
                        self.make_shard,
                        shard,
                        self.knowledge.enabled,
                        self.barrier_timeout,
                        profile_path,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.processes.append(process)
                self.connections.append(parent_conn)
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for process in self.processes:
                if process.is_alive():
                    process.terminate()
        for conn in self.connections:
            conn.close()
        for process in self.processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join()

    def run_round(
        self, slot: int, lb_targets: list[float]
    ) -> list[FleetRoundStats]:
        """Dispatch one round to every worker; stats in replica order.

        Books the wait for each worker's reply, in worker order, into
        this round's ``barrier_wait_s``.
        """
        round_index = len(self.barrier_wait_s)
        watermark = self.knowledge.n_entries
        # Reader -1 is no replica, so the window holds every entry
        # merged since the previous round.
        entries, self.sent = self.knowledge.updates_window(
            -1, self.sent, watermark
        )
        for worker_id in range(len(self.shards)):
            self._send(
                worker_id, ("round", watermark, slot, lb_targets, entries)
            )
        round_stats: list[FleetRoundStats] = []
        waits: list[float] = []
        for worker_id in range(len(self.shards)):
            wait_started = time.perf_counter()
            round_stats += self._reply(
                worker_id, f"round {round_index} outputs (worker {worker_id})"
            )
            waits.append(time.perf_counter() - wait_started)
        self.barrier_wait_s.append(waits)
        return sorted(round_stats, key=lambda stats: stats.index)

    def results(
        self,
    ) -> tuple[dict[int, CampaignResult], dict[int, list[dict]]]:
        """Every member's campaign result and telemetry events."""
        for worker_id in range(len(self.shards)):
            self._send(worker_id, ("finish",))
        per_service: dict[int, CampaignResult] = {}
        events: dict[int, list[dict]] = {}
        for worker_id, conn in enumerate(self.connections):
            # A worker exits once it has sent its results, so only its
            # own pipe (a message, or EOF) tells whether it failed.
            if not conn.poll(self.barrier_timeout):
                raise TimeoutError(
                    f"timed out waiting for worker {worker_id} results"
                )
            payload = _recv(conn, worker_id, self.processes[worker_id])
            per_service.update(payload["results"])
            events.update(payload["events"])
            self.dispatch_wait_s.append(float(payload["dispatch_wait_s"]))
        return per_service, events

    def _send(self, worker_id: int, message: tuple) -> None:
        try:
            self.connections[worker_id].send(message)
        except OSError:
            raise self._error(worker_id) from None

    def _reply(self, worker_id: int, what: str):
        """Worker ``worker_id``'s reply to a round; any death raises."""
        conn = self.connections[worker_id]
        deadline = time.monotonic() + self.barrier_timeout
        while not conn.poll(_POLL_S):
            for other, process in enumerate(self.processes):
                if not process.is_alive():
                    raise self._error(other)
            if time.monotonic() > deadline:
                raise TimeoutError(f"timed out waiting for {what}")
        return _recv(conn, worker_id, self.processes[worker_id])

    def _error(self, worker_id: int) -> FleetWorkerError:
        """Why a dead worker died: the error it relayed, if any."""
        conn = self.connections[worker_id]
        process = self.processes[worker_id]
        try:
            if conn.poll():
                _recv(conn, worker_id, process)
        except FleetWorkerError as exc:
            return exc
        return _worker_died(worker_id, process)


def run_fleet_campaign(
    n_services: int = 4,
    episodes_per_service: int = 8,
    seed: int = 0,
    workers: int = 1,
    share_knowledge: bool = True,
    schedule: list[FleetStrike] | None = None,
    p_correlated: float | None = None,
    p_cascade: float | None = None,
    spill_fraction: float = 0.5,
    scenario: str | ScenarioPack | None = None,
    record_path: str | None = None,
    events_path: str | None = None,
    profile_dir: str | None = None,
    barrier_timeout: float = 600.0,
) -> FleetResult:
    """Run a correlated-fault campaign over a fleet of replicas.

    Args:
        n_services: replicas behind the load balancer.
        episodes_per_service: strike slots each replica experiences,
            one per round.
        seed: fleet root seed; fully determines the result.
        workers: worker processes; 1 runs in-process.  The aggregate
            statistics are identical for any worker count.
        share_knowledge: exchange learned signatures between replicas
            (False is the isolation ablation arm).
        schedule: explicit fleet strike schedule; built from
            ``(seed, p_correlated, p_cascade)`` when omitted.
        spill_fraction: balancer failover spill (see
            :class:`FleetLoadBalancer`).
        scenario: scenario pack name or a
            :class:`~repro.scenarios.packs.ScenarioPack` instance
            (how fuzzer-generated scenarios drive fleets); shapes
            every member's workload and SLO and supplies the
            correlated schedule's failure kinds and pattern
            probabilities (explicit ``schedule`` / probability
            arguments still win).
        record_path: record every member's telemetry to this JSONL
            trace for
            :func:`repro.scenarios.runner.replay_fleet_campaign`.
            Requires the in-process runner (``workers=1``).
        events_path: write the flight-recorder event log here (JSONL,
            ``repro-events/1``): per-member healing spans and audit
            records plus coordinator ``fleet_round`` counters.  Works
            with any worker count — every timestamp is a tick and the
            streams are assembled canonically, so the bytes are a pure
            function of the campaign seed and shape.
        profile_dir: when the parallel runner is used, each worker
            process runs under cProfile and dumps
            ``fleet-worker-<k>.prof`` into this directory at shutdown
            (the in-process runner produces no dumps — profile the
            coordinator directly).
        barrier_timeout: seconds the coordinator may wait for one
            worker's reply before the campaign is declared hung
            (workers allow twice that for their next message).

    Raises:
        FleetWorkerError: a worker of the sharded runner died or
            relayed an error.
        TimeoutError: a worker of the sharded runner stalled past
            ``barrier_timeout``.
    """
    if n_services < 1:
        raise ValueError(f"n_services must be >= 1, got {n_services}")
    if episodes_per_service < 0:
        raise ValueError(
            f"episodes_per_service must be >= 0, got {episodes_per_service}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()

    pack = None
    if scenario is not None:
        from repro.scenarios.packs import get_scenario

        pack = (
            get_scenario(scenario)
            if isinstance(scenario, str)
            else scenario
        )
    scenario_name = pack.name if pack is not None else None
    # Explicit probabilities win; otherwise the scenario pack (or the
    # historical defaults) decide the strike mix.
    if p_correlated is None:
        p_correlated = pack.p_correlated if pack is not None else 0.4
    if p_cascade is None:
        p_cascade = pack.p_cascade if pack is not None else 0.15
    schedule_kinds = (
        pack.fleet_kinds if pack is not None and pack.fleet_kinds else None
    )

    if schedule is None:
        schedule_kwargs = dict(
            p_correlated=p_correlated, p_cascade=p_cascade
        )
        if schedule_kinds is not None:
            schedule_kwargs["kinds"] = schedule_kinds
        schedule = build_correlated_schedule(
            n_services,
            episodes_per_service,
            seed,
            **schedule_kwargs,
        )
    queues = per_service_queues(schedule, n_services)

    recorder = None
    if record_path is not None:
        if workers > 1 and n_services > 1:
            raise ValueError(
                "trace recording requires the in-process runner "
                "(workers=1): simulator telemetry never crosses the "
                "worker process boundary"
            )
        from repro.scenarios.trace import TraceRecorder

        recorder = TraceRecorder(record_path)

    hub = None
    if events_path is not None:
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub()
    member_kwargs = dict(
        scenario=pack, recorder=recorder, telemetry=hub is not None
    )

    balancer = FleetLoadBalancer(
        n_services, spill_fraction=spill_fraction
    )
    knowledge = SharedKnowledgeBase(enabled=share_knowledge)
    make_shard = functools.partial(
        _Shard,
        seed=seed,
        queues=queues,
        member_kwargs=member_kwargs,
    )
    use_workers = workers > 1 and n_services > 1
    if use_workers:
        n_workers = min(workers, n_services)
        executor = _WorkerPool(
            [list(range(k, n_services, n_workers)) for k in range(n_workers)],
            make_shard,
            knowledge,
            barrier_timeout,
            profile_dir,
        )
    else:
        shard = make_shard(range(n_services), knowledge)
        if recorder is not None:
            # The members wrote their services' facts when they attached.
            loop = shard.members[0].loop
            recorder.set_header(
                kind="fleet",
                scenario=scenario_name,
                seed=seed,
                n_services=n_services,
                episodes_per_service=episodes_per_service,
                share_knowledge=share_knowledge,
                threshold=loop.threshold,
                include_invasive=loop.harness.include_invasive,
                member_seeds=[
                    member.member_seed for member in shard.members.values()
                ],
            )
        executor = contextlib.nullcontext(shard)

    lb_targets = [1.0] * n_services
    absorbed_total = 0
    n_rounds = len(schedule)

    # Transport instrumentation.  ``round_lags`` (entries published at
    # each barrier = how far members trail the knowledge base) is
    # deterministic and identical for any worker count; the *_s
    # timings are wall clock and stay out of the event log.
    round_lags: list[int] = []
    merge_s = 0.0

    with executor as dispatch:
        for round_index in range(n_rounds):
            # Every member absorbs what was merged before the round.
            watermark = knowledge.n_entries
            round_stats = dispatch.run_round(round_index, lb_targets)

            # Barrier: merge contributions in replica order, rebalance.
            merge_started = time.perf_counter()
            downtime = [stats.downtime_fraction for stats in round_stats]
            absorbed_round = sum(stats.absorbed for stats in round_stats)
            for stats in round_stats:
                for symptoms, fix_kind, origin in stats.contributions:
                    knowledge.contribute(
                        stats.index, symptoms, fix_kind, origin
                    )
            lb_targets = balancer.rebalance(downtime)
            merge_s += time.perf_counter() - merge_started
            absorbed_total += absorbed_round
            published = knowledge.n_entries - watermark
            round_lags.append(published)
            if hub is not None:
                hub.emit(
                    "fleet_round",
                    round=round_index,
                    watermark=watermark,
                    published=published,
                    absorbed=absorbed_round,
                    lag=published,
                    downtime=downtime,
                )
        per_service, events_by_member = dispatch.results()
    campaigns = [per_service[i] for i in range(n_services)]
    published_entries = knowledge.n_entries
    published_bytes = knowledge.data_bytes

    trace_sha = None
    if recorder is not None:
        for i, campaign in enumerate(campaigns):
            recorder.summary(i, campaign.injected, campaign.undetected)
        trace_sha = recorder.close()

    events_sha = None
    if hub is not None:
        hub.emit(
            "fleet_end",
            rounds=n_rounds,
            entries=published_entries,
            bytes=published_bytes,
            absorbed=absorbed_total,
        )
        from repro.telemetry import dump_events

        # Canonical stream order (coordinator, then members by index)
        # makes the bytes worker-count-independent; the header omits
        # ``workers`` for the same reason.
        events_sha = dump_events(
            events_path,
            {
                "kind": "fleet",
                "scenario": scenario_name,
                "seed": seed,
                "n_services": n_services,
                "episodes_per_service": episodes_per_service,
                "share_knowledge": share_knowledge,
            },
            [hub.events, *(events_by_member[i] for i in range(n_services))],
        )

    transport = {
        "mode": "sharded" if use_workers else "serial",
        "workers": n_workers if use_workers else 1,
        "rounds": n_rounds,
        "knowledge": {
            "published_entries": published_entries,
            "published_bytes": published_bytes,
            "absorbed_entries": absorbed_total,
        },
        "watermark_lag": {
            "per_round": round_lags,
            "max": max(round_lags) if round_lags else 0,
            "mean": (
                sum(round_lags) / len(round_lags) if round_lags else 0.0
            ),
        },
        "barrier_wait_s": dispatch.barrier_wait_s if use_workers else [],
        "dispatch_wait_s": dispatch.dispatch_wait_s if use_workers else [],
        "merge_s": merge_s,
    }

    return FleetResult(
        per_service=campaigns,
        schedule=schedule,
        n_services=n_services,
        episodes_per_service=episodes_per_service,
        seed=seed,
        workers=workers,
        share_knowledge=share_knowledge,
        knowledge_entries=published_entries,
        knowledge_absorbed=absorbed_total,
        wall_clock_s=time.perf_counter() - started,
        scenario=scenario_name,
        trace_path=record_path,
        trace_sha256=trace_sha,
        events_path=events_path,
        events_sha256=events_sha,
        transport=transport,
    )


def format_fleet(result: FleetResult) -> str:
    """Human-readable fleet campaign report."""
    lines = [
        (
            f"Fleet campaign: {result.n_services} services x "
            f"{result.episodes_per_service} episodes "
            f"(seed={result.seed}, workers={result.workers}, "
            f"sharing={'on' if result.share_knowledge else 'off'})"
        ),
        (
            "strike mix: "
            + ", ".join(
                f"{pattern}={count}"
                for pattern, count in sorted(result.pattern_counts().items())
            )
        ),
        "",
        "  svc  episodes  undetected  escal.  attempts  detect  recover",
    ]
    for i, campaign in enumerate(result.per_service):
        lines.append(
            f"  {i:>3}  {len(campaign.reports):>8}  "
            f"{campaign.undetected:>10}  "
            f"{campaign.escalation_rate:>6.2f}  "
            f"{campaign.mean_attempts:>8.2f}  "
            f"{campaign.mean_detection_ticks():>6.1f}  "
            f"{campaign.mean_recovery_ticks():>7.1f}"
        )
    lines += [
        "",
        (
            f"fleet: {result.total_reports} episodes healed, "
            f"{result.undetected} undetected, "
            f"escalation rate {result.escalation_rate:.2f}, "
            f"mean attempts {result.mean_attempts:.2f}"
        ),
        (
            f"       detection {result.mean_detection_ticks():.1f} ticks, "
            f"recovery {result.mean_recovery_ticks():.1f} ticks"
        ),
        (
            f"knowledge: {result.knowledge_entries} signatures shared, "
            f"{result.knowledge_absorbed} absorbed by peers"
        ),
        f"wall clock: {result.wall_clock_s:.1f}s",
    ]
    return "\n".join(lines)
