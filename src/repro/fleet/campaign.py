"""Fleet campaigns: correlated faults, shared knowledge, parallelism.

The runner advances every replica through the same slot-aligned
schedule in *rounds*.  A round is the unit of parallelism **and** the
knowledge/rebalancing barrier:

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

The sharded executor (:func:`_run_sharded`) keeps the Pipe only for
the startup handshake, the final results, and crash relay; every
per-round exchange rides the shared-memory segments in
:mod:`repro.fleet.transport`.  Workers receive their whole fault
schedule at spawn, absorb fleet knowledge in-process against the
append-only shared knowledge log ("entries published before round R"
— the same barrier semantics the serial runner implements with
cursors), and publish round output into per-worker blocks the
coordinator merges in replica order with vectorized stacked-array
appends.  See ``docs/performance.md`` ("Fleet transport") for the
layout and the equivalence argument.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.campaign import CampaignResult
from repro.faults.correlated import (
    FleetStrike,
    build_correlated_schedule,
    per_service_queues,
)
from repro.fleet.knowledge import KnowledgeEntry, SharedKnowledgeBase
from repro.fleet.loadbalancer import FleetLoadBalancer
from repro.fleet.member import FleetMember, FleetRoundStats
from repro.fleet.transport import (
    ControlSegment,
    KnowledgeLogSegment,
    Vocab,
    WorkerOutSegment,
    acquire_with_liveness,
    pack_ragged,
)
from repro.simulator.config import ServiceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
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


def _transport_vocab() -> tuple[str, ...]:
    """Fix kinds + contribution origins, the coded-string universe."""
    from repro.fixes.catalog import ALL_FIX_KINDS

    return tuple(dict.fromkeys((*ALL_FIX_KINDS, "healed", "admin")))


def _member_round(
    member: FleetMember,
    faults: list,
    external: list,
    lb_target: float,
    max_episode_wait: int,
    settle_ticks: int,
) -> FleetRoundStats:
    """One member's round: rebalance, absorb peer knowledge, run."""
    member.set_lb_factor(lb_target)
    absorbed = member.absorb(external)
    stats = member.run_round(
        faults,
        max_episode_wait=max_episode_wait,
        settle_ticks=settle_ticks,
    )
    stats.absorbed = absorbed
    return stats


def _entries_from_log(
    log: KnowledgeLogSegment,
    cursor: int,
    watermark: int,
    me: int,
    vocab: Vocab,
) -> list[KnowledgeEntry]:
    """Materialize the foreign entries in ``[cursor, watermark)``.

    The worker-side half of ``SharedKnowledgeBase.updates_for``: same
    slice, same own-source filter, same entry order — which is what
    keeps worker-side absorption bit-identical to the serial runner's.
    Symptom vectors are copied out of the segment (the synopsis keeps
    them past the campaign's lifetime).
    """
    sources, fix_codes, origin_codes, bounds, data = log.read_entries(
        cursor, watermark
    )
    entries = []
    for j in range(watermark - cursor):
        source = int(sources[j])
        if source == me:
            continue
        entries.append(
            KnowledgeEntry(
                seq=cursor + j,
                source=source,
                symptoms=data[int(bounds[j]) : int(bounds[j + 1])].copy(),
                fix_kind=vocab.decode(int(fix_codes[j])),
                origin=vocab.decode(int(origin_codes[j])),
            )
        )
    return entries


def _fleet_worker(
    conn,
    indices: list[int],
    seed: int,
    queues: dict[int, list],
    member_kwargs: dict,
    max_episode_wait: int,
    settle_ticks: int,
    n_rounds: int,
    episodes_per_round: int,
    n_slots: int,
    vocab_words: tuple[str, ...],
    barrier_timeout: float,
    profile_path: str | None,
    dispatch_sem,
    done_sem,
) -> None:
    """Persistent shard process owning a subset of replicas.

    Simulator state never crosses the process boundary: the worker
    builds its members locally and keeps them for the whole campaign.
    The Pipe carries only the startup handshake (symptom width out,
    segment names in), the final per-replica campaign results, and
    crash relay; per-round exchange — balancer targets and knowledge
    watermarks in, downtime/absorb counts and learned signatures out —
    is entirely shared-memory, synchronized by the dispatch/done
    semaphore pair (whose acquire/release ordering makes the segment
    reads safe on any architecture).

    Each round's dispatch record (:class:`ControlSegment`) carries the
    watermark the coordinator had merged before the round.  Knowledge
    absorption happens here, in the worker, against the append-only
    shared log: member ``i`` absorbs the foreign entries below that
    watermark, exactly the serial runner's cursor semantics.
    """
    control = log = out = None
    profiler = None
    try:
        if profile_path is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        vocab = Vocab(vocab_words)
        members = {
            i: FleetMember(index=i, seed=seed, **member_kwargs)
            for i in indices
        }
        order = sorted(members)
        dim = max(members[i].symptom_dim for i in order)
        conn.send(("ready", dim))
        message = conn.recv()
        if message[0] != "attach":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"expected attach message, got {message[0]!r}"
            )
        (
            _,
            control_name,
            n_services,
            log_name,
            log_entries,
            log_data,
            out_name,
            out_entries,
            out_data,
        ) = message
        control = ControlSegment.attach(control_name, n_services)
        log = KnowledgeLogSegment.attach(log_name, log_entries, log_data)
        out = WorkerOutSegment.attach(
            out_name, len(order), out_entries, out_data
        )
        cursors = {i: 0 for i in order}

        def coordinator_alive() -> None:
            if control.aborted():
                raise RuntimeError(
                    "fleet coordinator aborted the campaign"
                )

        dispatch_wait_s = 0.0
        for round_index in range(n_rounds):
            wait_started = time.perf_counter()
            # A dispatch can trail the coordinator's own wait on the
            # slowest worker by up to ``barrier_timeout``; allowing
            # twice that lets the coordinator report a stall first,
            # naming the stalled worker.
            acquire_with_liveness(
                dispatch_sem,
                timeout=2 * barrier_timeout,
                liveness=coordinator_alive,
                what=f"round {round_index} dispatch",
            )
            dispatch_wait_s += time.perf_counter() - wait_started
            watermark, targets = control.read_round(round_index)
            # Sanity, not synchronization: the dispatch semaphore
            # already fenced the log stores.
            if log.published < watermark:  # pragma: no cover - guard
                raise RuntimeError(
                    f"round {round_index} dispatched with watermark "
                    f"{watermark} ahead of the published log "
                    f"({log.published})"
                )
            lo = round_index * episodes_per_round
            hi = min(lo + episodes_per_round, n_slots)
            downtime: list[float] = []
            absorbed: list[int] = []
            counts: list[int] = []
            vectors: list[np.ndarray] = []
            fix_codes: list[int] = []
            origin_codes: list[int] = []
            for i in order:
                stats = _member_round(
                    members[i],
                    queues[i][lo:hi],
                    _entries_from_log(log, cursors[i], watermark, i, vocab),
                    float(targets[i]),
                    max_episode_wait,
                    settle_ticks,
                )
                cursors[i] = watermark
                downtime.append(stats.downtime_fraction)
                absorbed.append(stats.absorbed)
                counts.append(len(stats.contributions))
                for symptoms, fix_kind, origin in stats.contributions:
                    vectors.append(symptoms)
                    fix_codes.append(vocab.encode(fix_kind))
                    origin_codes.append(vocab.encode(origin))
            flat, lengths = pack_ragged(vectors)
            out.write_round(
                round_index,
                downtime,
                absorbed,
                counts,
                flat,
                lengths,
                np.asarray(fix_codes, dtype=np.int64),
                np.asarray(origin_codes, dtype=np.int64),
            )
            done_sem.release()

        message = conn.recv()
        if message[0] != "finish":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"expected finish message, got {message[0]!r}"
            )
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
            profiler = None
        conn.send(
            (
                "ok",
                {
                    "results": {i: members[i].result for i in members},
                    "events": {
                        i: members[i].telemetry.events
                        for i in members
                        if members[i].telemetry is not None
                    },
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
        for segment in (control, log, out):
            if segment is not None:
                segment.close()
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

    Its pipe is already at EOF, so the worker is dead and the join
    returns at once; joining first makes ``exitcode`` available.
    """
    process.join(timeout=5)
    return FleetWorkerError(
        f"fleet worker {worker_id} died without reporting an error "
        f"(exitcode {process.exitcode})"
    )


def _recv(conn, worker_id: int, process: multiprocessing.Process):
    """One reply from worker ``worker_id``, relaying its failure.

    A worker that raised sends its traceback; one that was killed
    (e.g. SIGKILL) leaves only EOF on its pipe.
    """
    try:
        status, payload = conn.recv()
    except EOFError:
        raise _worker_died(worker_id, process) from None
    if status == "error":
        raise FleetWorkerError(f"fleet worker failed:\n{payload}")
    return payload


def _terminate(processes: list[multiprocessing.Process]) -> None:
    """Stop every worker of a failed campaign without waiting on it.

    A surviving worker may be blocked in ``conn.recv()`` on the attach
    or finish handshake.  Closing the coordinator's pipe ends does not
    wake it: forked workers hold copies of those ends, so no EOF ever
    arrives.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()


def _join(processes: list[multiprocessing.Process]) -> None:
    """Reap every worker; terminate one that outstays the timeout."""
    for process in processes:
        process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - hung worker
            process.terminate()
            process.join()


def _merge_round(
    round_index: int,
    shards: list[list[int]],
    outs: list[WorkerOutSegment],
    n_services: int,
    balancer: FleetLoadBalancer,
    log: KnowledgeLogSegment,
    enabled: bool,
) -> tuple[list[float], list[float], int]:
    """Merge one round's per-worker output blocks, then release them.

    Rebalances on the round's downtime and appends its contributions
    to the shared log in replica order — the serial merge order, which
    is what keeps the log bytes identical for any worker count.  The
    blocks are read zero-copy; scoping the views to this function
    keeps them from pinning the shared buffers past teardown.
    Returns ``(lb targets, per-service downtime, absorbed delta)``.
    """
    reads = [out.read_round(round_index) for out in outs]
    downtime = [0.0] * n_services
    absorbed = 0
    for shard, read in zip(shards, reads):
        for k, i in enumerate(sorted(shard)):
            downtime[i] = float(read["downtime"][k])
        absorbed += int(read["absorbed"].sum())
    lb_targets = balancer.rebalance(downtime)
    if enabled and any(int(read["counts"].sum()) for read in reads):
        log.append_batch(*_regroup_contributions(shards, reads))
    for out in outs:
        out.mark_consumed(round_index)
    return lb_targets, downtime, absorbed


def _regroup_contributions(
    shards: list[list[int]], reads: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reorder per-worker round output into replica order.

    Each worker publishes its contributions grouped by member (in its
    shard's index order); the round merge must interleave shards
    back into global replica order.  Work is per *member group*
    (array slices), never per entry.
    """
    pieces = []
    for shard, read in zip(shards, reads):
        counts = read["counts"]
        entry_bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=entry_bounds[1:])
        data_bounds = np.zeros(len(read["lengths"]) + 1, dtype=np.int64)
        np.cumsum(read["lengths"], out=data_bounds[1:])
        for k, member_index in enumerate(sorted(shard)):
            e0, e1 = int(entry_bounds[k]), int(entry_bounds[k + 1])
            if e0 == e1:
                continue
            pieces.append(
                (
                    member_index,
                    read["flat"][
                        int(data_bounds[e0]) : int(data_bounds[e1])
                    ],
                    read["lengths"][e0:e1],
                    read["fix_codes"][e0:e1],
                    read["origin_codes"][e0:e1],
                )
            )
    pieces.sort(key=lambda piece: piece[0])
    if not pieces:
        empty_f = np.zeros(0, dtype=np.float64)
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_f, empty_i, empty_i, empty_i, empty_i
    flat = np.concatenate([p[1] for p in pieces])
    lengths = np.concatenate([p[2] for p in pieces])
    sources = np.concatenate(
        [np.full(len(p[2]), p[0], dtype=np.int64) for p in pieces]
    )
    fix_codes = np.concatenate([p[3] for p in pieces])
    origin_codes = np.concatenate([p[4] for p in pieces])
    return flat, lengths, sources, fix_codes, origin_codes


def run_fleet_campaign(
    n_services: int = 4,
    episodes_per_service: int = 8,
    seed: int = 0,
    workers: int = 1,
    share_knowledge: bool = True,
    schedule: list[FleetStrike] | None = None,
    p_correlated: float | None = None,
    p_cascade: float | None = None,
    episodes_per_round: int = 1,
    config: ServiceConfig | None = None,
    threshold: int = 5,
    include_invasive: bool = True,
    max_episode_wait: int = 150,
    settle_ticks: int = 30,
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
        episodes_per_service: strike slots each replica experiences.
        seed: fleet root seed; fully determines the result.
        workers: worker processes; 1 runs in-process.  The aggregate
            statistics are identical for any worker count.
        share_knowledge: exchange learned signatures between replicas
            (False is the isolation ablation arm).
        schedule: explicit fleet strike schedule; built from
            ``(seed, p_correlated, p_cascade)`` when omitted.
        episodes_per_round: strike slots between knowledge/rebalance
            barriers (1 propagates knowledge fastest).
        config: sizing template shared by all replicas.
        threshold / include_invasive / max_episode_wait / settle_ticks:
            forwarded to each replica's loop and episode engine.
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
            trace for :func:`repro.scenarios.replay_fleet_campaign`.
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
        barrier_timeout: seconds the coordinator may wait on one
            worker's round before the campaign is declared hung
            (workers allow twice that for their next dispatch).

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
    if episodes_per_round < 1:
        raise ValueError(
            f"episodes_per_round must be >= 1, got {episodes_per_round}"
        )
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

    member_kwargs = dict(
        config=config,
        threshold=threshold,
        include_invasive=include_invasive,
    )
    if pack is not None:
        member_kwargs["scenario"] = pack
    if recorder is not None:
        member_kwargs["recorder"] = recorder

    hub = None
    if events_path is not None:
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub()
        member_kwargs["telemetry"] = True

    balancer = FleetLoadBalancer(
        n_services, spill_fraction=spill_fraction
    )
    lb_targets = [1.0] * n_services
    absorbed_total = 0
    n_slots = len(schedule)
    n_rounds = math.ceil(n_slots / episodes_per_round) if n_slots else 0

    # Transport instrumentation.  ``round_lags`` (entries published at
    # each barrier = how far members trail the shared log) is
    # deterministic and identical for any worker count; the *_s
    # timings are wall clock and stay out of the event log.
    round_lags: list[int] = []
    barrier_wait_s: list[list[float]] = []
    dispatch_wait_s: list[float] = []
    merge_s = 0.0
    member_event_streams: list[list[dict]] = []

    use_workers = workers > 1 and n_services > 1
    if use_workers:
        campaigns, published, absorbed_total, events_by_member, shard_perf = (
            _run_sharded(
                n_services=n_services,
                workers=workers,
                seed=seed,
                queues=queues,
                member_kwargs=member_kwargs,
                max_episode_wait=max_episode_wait,
                settle_ticks=settle_ticks,
                n_rounds=n_rounds,
                episodes_per_round=episodes_per_round,
                n_slots=n_slots,
                share_knowledge=share_knowledge,
                balancer=balancer,
                barrier_timeout=barrier_timeout,
                profile_dir=profile_dir,
                hub=hub,
                round_lags=round_lags,
            )
        )
        published_entries, published_bytes = published
        barrier_wait_s = shard_perf["barrier_wait_s"]
        dispatch_wait_s = shard_perf["dispatch_wait_s"]
        merge_s = shard_perf["merge_s"]
        if hub is not None:
            member_event_streams = [
                events_by_member[i] for i in range(n_services)
            ]
    else:
        members = [
            FleetMember(index=i, seed=seed, **member_kwargs)
            for i in range(n_services)
        ]
        if recorder is not None:
            recorder.set_header(
                kind="fleet",
                scenario=scenario_name,
                seed=seed,
                n_services=n_services,
                episodes_per_service=episodes_per_service,
                share_knowledge=share_knowledge,
                threshold=threshold,
                include_invasive=include_invasive,
                member_seeds=[m.member_seed for m in members],
                beans=sorted(members[0].service.app.container.ejbs),
                capacities={
                    "web": members[0].service.web.capacity,
                    "app": members[0].service.app.capacity,
                    "db": members[0].service.db.capacity,
                },
            )
        knowledge = SharedKnowledgeBase(enabled=share_knowledge)
        cursors = [0] * n_services
        for round_index in range(n_rounds):
            lo = round_index * episodes_per_round
            hi = min(lo + episodes_per_round, n_slots)
            # Every member absorbs what was merged before the round.
            watermark = knowledge.n_entries
            round_stats: list[FleetRoundStats] = []
            for i, member in enumerate(members):
                external, cursors[i] = knowledge.updates_window(
                    i, cursors[i], watermark
                )
                round_stats.append(
                    _member_round(
                        member,
                        queues[i][lo:hi],
                        external,
                        lb_targets[i],
                        max_episode_wait,
                        settle_ticks,
                    )
                )

            # Barrier: merge contributions in replica order, rebalance.
            merge_started = time.perf_counter()
            downtime = [stats.downtime_fraction for stats in round_stats]
            absorbed_round = sum(stats.absorbed for stats in round_stats)
            for i, stats in enumerate(round_stats):
                for symptoms, fix_kind, origin in stats.contributions:
                    knowledge.contribute(i, symptoms, fix_kind, origin)
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
        campaigns = [member.result for member in members]
        published_entries = knowledge.n_entries
        published_bytes = knowledge.data_bytes
        if hub is not None:
            member_event_streams = [
                member.telemetry.events for member in members
            ]

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
            [hub.events, *member_event_streams],
        )

    transport = {
        "mode": "sharded" if use_workers else "serial",
        "workers": min(workers, n_services) if use_workers else 1,
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
        "barrier_wait_s": barrier_wait_s,
        "dispatch_wait_s": dispatch_wait_s,
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


def _run_sharded(
    *,
    n_services: int,
    workers: int,
    seed: int,
    queues: list,
    member_kwargs: dict,
    max_episode_wait: int,
    settle_ticks: int,
    n_rounds: int,
    episodes_per_round: int,
    n_slots: int,
    share_knowledge: bool,
    balancer: FleetLoadBalancer,
    barrier_timeout: float,
    profile_dir: str | None,
    hub,
    round_lags: list[int],
) -> tuple[
    list[CampaignResult], tuple[int, int], int, dict[int, list[dict]], dict
]:
    """The coordinator of the sharded executor: a round barrier.

    After a one-time handshake, each round:

    1. publishes one dispatch record — the round's balancer targets
       and the watermark ``log.published`` — and releases every
       worker;
    2. acquires every worker's done semaphore in worker order, booking
       each wait into that round's ``barrier_wait_s``;
    3. merges the output blocks zero-copy in replica order — so the
       shared log holds the serial runner's bytes — and marks them
       consumed;
    4. emits ``fleet_round``.

    Every member therefore absorbs everything merged before its round,
    with the serial runner's watermarks, merge order and telemetry.
    The coordinator keeps no knowledge base of its own: the published
    entry count and symptom bytes it returns are read off the shared
    log.
    """
    vocab_words = _transport_vocab()
    absorbed_total = 0
    merge_s = 0.0
    barrier_wait_s: list[list[float]] = [[] for _ in range(n_rounds)]
    # Start the resource tracker *before* forking workers so they
    # inherit it.  The segments are only created after the handshake;
    # a worker that forked trackerless would lazily spawn its own
    # tracker on attach and "clean up" the coordinator's live segments
    # when it exits.
    try:  # pragma: no cover - private but stable across 3.8-3.13
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass
    shards: list[list[int]] = [
        [] for _ in range(min(workers, n_services))
    ]
    for i in range(n_services):
        shards[i % len(shards)].append(i)

    processes: list[multiprocessing.Process] = []
    connections = []
    dispatch_sems = []
    done_sems = []
    control = None
    log = None
    outs: list[WorkerOutSegment] = []
    try:
        for worker_id, shard in enumerate(shards):
            parent_conn, child_conn = multiprocessing.Pipe()
            dispatch_sem = multiprocessing.Semaphore(0)
            done_sem = multiprocessing.Semaphore(0)
            profile_path = (
                os.path.join(
                    profile_dir, f"fleet-worker-{worker_id}.prof"
                )
                if profile_dir is not None
                else None
            )
            process = multiprocessing.Process(
                target=_fleet_worker,
                args=(
                    child_conn,
                    shard,
                    seed,
                    {i: queues[i] for i in shard},
                    member_kwargs,
                    max_episode_wait,
                    settle_ticks,
                    n_rounds,
                    episodes_per_round,
                    n_slots,
                    vocab_words,
                    barrier_timeout,
                    profile_path,
                    dispatch_sem,
                    done_sem,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            processes.append(process)
            connections.append(parent_conn)
            dispatch_sems.append(dispatch_sem)
            done_sems.append(done_sem)

        # Handshake: symptom widths size the ragged segments.  The
        # knowledge log's structural bound is one contribution per
        # episode slot per replica.
        max_dim = max(
            _recv(conn, worker_id, process)
            for worker_id, (process, conn) in enumerate(
                zip(processes, connections)
            )
        )
        log_entries = n_services * max(n_slots, 1) + 16
        log_data = log_entries * max(max_dim, 1)
        log = KnowledgeLogSegment(log_entries, log_data)
        control = ControlSegment(n_services)
        for shard, conn in zip(shards, connections):
            out_entries = 2 * len(shard) * episodes_per_round + 8
            out_data = out_entries * max(max_dim, 1)
            out = WorkerOutSegment(len(shard), out_entries, out_data)
            outs.append(out)
            conn.send(
                (
                    "attach",
                    control.name,
                    n_services,
                    log.name,
                    log_entries,
                    log_data,
                    out.name,
                    out_entries,
                    out_data,
                )
            )

        def workers_alive() -> None:
            for worker_id, (process, conn) in enumerate(
                zip(processes, connections)
            ):
                if conn.poll():
                    # Raises with the worker's traceback, or its exit
                    # code when it died without one.
                    _recv(conn, worker_id, process)
                if not process.is_alive():
                    raise _worker_died(worker_id, process)

        lb_targets = [1.0] * n_services
        for round_index in range(n_rounds):
            watermark = log.published
            control.publish(round_index, watermark, lb_targets)
            for dispatch_sem in dispatch_sems:
                dispatch_sem.release()
            for worker_id, done_sem in enumerate(done_sems):
                wait_started = time.perf_counter()
                acquire_with_liveness(
                    done_sem,
                    timeout=barrier_timeout,
                    liveness=workers_alive,
                    what=f"round {round_index} outputs (worker {worker_id})",
                )
                barrier_wait_s[round_index].append(
                    time.perf_counter() - wait_started
                )
            merge_started = time.perf_counter()
            lb_targets, downtime, absorbed = _merge_round(
                round_index,
                shards,
                outs,
                n_services,
                balancer,
                log,
                share_knowledge,
            )
            merge_s += time.perf_counter() - merge_started
            absorbed_total += absorbed
            published = log.published - watermark
            round_lags.append(published)
            if hub is not None:
                hub.emit(
                    "fleet_round",
                    round=round_index,
                    watermark=watermark,
                    published=published,
                    absorbed=absorbed,
                    lag=published,
                    downtime=downtime,
                )

        # The symptom payload is float64 and the bounds are offsets
        # into it, so the last published offset times 8 is its size.
        published_entries = log.published
        published_bytes = (
            int(log.read_entries(0, published_entries)[3][-1]) * 8
        )

        per_service: dict[int, CampaignResult] = {}
        events_by_member: dict[int, list[dict]] = {}
        dispatch_wait_s: list[float] = []
        for conn in connections:
            conn.send(("finish",))
        for worker_id, (process, conn) in enumerate(
            zip(processes, connections)
        ):
            payload = _recv(conn, worker_id, process)
            per_service.update(payload["results"])
            events_by_member.update(payload["events"])
            dispatch_wait_s.append(float(payload["dispatch_wait_s"]))
        return (
            [per_service[i] for i in range(n_services)],
            (published_entries, published_bytes),
            absorbed_total,
            events_by_member,
            {
                "barrier_wait_s": barrier_wait_s,
                "dispatch_wait_s": dispatch_wait_s,
                "merge_s": merge_s,
            },
        )
    except BaseException:
        _terminate(processes)
        raise
    finally:
        if control is not None:
            control.abort()
        for conn in connections:
            conn.close()
        _join(processes)
        for segment in (control, log, *outs):
            if segment is not None:
                segment.close()
                segment.unlink()


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
