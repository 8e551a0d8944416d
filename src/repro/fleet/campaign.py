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

The parallel executor keeps the Pipe only for the startup handshake,
the final results, and crash relay; every per-round exchange rides the
shared-memory segments in :mod:`repro.fleet.transport`.  Workers
receive their whole fault schedule at spawn, absorb fleet knowledge
in-process against the append-only shared knowledge log ("entries
published before round R" — the same barrier semantics the serial
runner implements with cursors), and publish round output into
ring-buffered segments the coordinator merges with vectorized
stacked-array appends, overlapped with the workers' next round of
compute.  See ``docs/performance.md`` ("Fleet transport") for the
layout and the equivalence argument.

``staleness_rounds=K`` opts into *bounded-staleness* exchange: the
knowledge watermark decouples from the round counter, workers absorb
the shared log up to K rounds late, and the coordinator becomes a
free-running consumer of per-worker output rings
(:func:`_run_sharded_staleness`).  ``K = 0`` reproduces the barrier
bit-exactly; see ``docs/performance.md`` ("Bounded-staleness
exchange").
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
    StalenessControlSegment,
    Vocab,
    WorkerOutSegment,
    acquire_with_liveness,
    pack_ragged,
    ring_slots_for,
)
from repro.simulator.config import ServiceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.packs import ScenarioPack

__all__ = [
    "FleetResult",
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
        staleness_rounds: the bounded-staleness budget the campaign
            ran with (``None`` = classic barrier exchange, ``0`` =
            barrier-equivalent staleness executor, ``K`` = absorb up
            to K rounds late, ``inf`` = unbounded).
        slo_breaches_after_heal: verified heals whose SLO re-broke
            within the post-heal window (``None`` unless the campaign
            ran with ``track_slo=True``).
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
    staleness_rounds: int | float | None = None
    slo_breaches_after_heal: int | None = None
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


def _normalize_staleness(
    staleness_rounds: int | float | None,
) -> int | float | None:
    """Validate a staleness budget: None, a whole number >= 0, or inf."""
    if staleness_rounds is None:
        return None
    if staleness_rounds == float("inf"):
        return float("inf")
    try:
        budget = int(staleness_rounds)
    except (TypeError, ValueError, OverflowError):
        budget = -1
    if budget != staleness_rounds or budget < 0:
        raise ValueError(
            "staleness_rounds must be None, a non-negative integer, "
            f"or float('inf'), got {staleness_rounds!r}"
        )
    return budget


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
    staleness_slots: int | None = None,
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
    reads safe on any architecture).  Knowledge absorption happens
    here, in the worker, against the append-only shared log: member
    ``i`` absorbs the foreign entries below the round's watermark,
    exactly the serial runner's cursor semantics.

    With ``staleness_slots`` set (the bounded-staleness executor) the
    worker attaches a per-worker :class:`StalenessControlSegment`
    instead of the global barrier control block: each dispatch record
    carries the watermark the coordinator had merged when the dispatch
    was issued — decoupled from the round counter — plus the merge
    frontier, from which the worker ledgers its observed round lag.
    The compute path is untouched; only where the watermark comes from
    changes.
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
            out_slots,
        ) = message
        if staleness_slots is not None:
            control = StalenessControlSegment.attach(
                control_name, staleness_slots, n_services
            )
        else:
            control = ControlSegment(n_services, name=control_name)
        log = KnowledgeLogSegment.attach(log_name, log_entries, log_data)
        out = WorkerOutSegment.attach(
            out_name, len(order), out_entries, out_data, n_slots=out_slots
        )
        cursors = {i: 0 for i in order}
        staleness_lags: list[int] = []
        staleness_marks: list[int] = []

        def coordinator_alive() -> None:
            if control.aborted():
                raise RuntimeError(
                    "fleet coordinator aborted the campaign"
                )

        dispatch_wait_s = 0.0
        for round_index in range(n_rounds):
            wait_started = time.perf_counter()
            acquire_with_liveness(
                dispatch_sem,
                timeout=barrier_timeout,
                liveness=coordinator_alive,
                what=f"round {round_index} dispatch",
            )
            dispatch_wait_s += time.perf_counter() - wait_started
            if staleness_slots is not None:
                watermark, frontier, targets = control.read_dispatch(
                    round_index
                )
                staleness_lags.append(round_index - frontier)
                staleness_marks.append(watermark)
                if log.published < watermark:  # pragma: no cover - guard
                    raise RuntimeError(
                        f"round {round_index} dispatched with watermark "
                        f"{watermark} ahead of the published log "
                        f"({log.published})"
                    )
            else:
                watermark, targets = control.read_round(round_index)
                # Sanity, not synchronization: the dispatch semaphore
                # already fenced these stores.
                if (
                    control.round_published() <= round_index
                    or log.published < watermark
                ):  # pragma: no cover - protocol guard
                    raise RuntimeError(
                        f"round {round_index} dispatched before its "
                        "control/log stores were published"
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
                    "perf": {
                        "dispatch_wait_s": dispatch_wait_s,
                        "staleness": (
                            {
                                "round_lag": staleness_lags,
                                "watermark": staleness_marks,
                            }
                            if staleness_slots is not None
                            else None
                        ),
                    },
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


def _recv(conn):
    status, payload = conn.recv()
    if status == "error":
        raise RuntimeError(f"fleet worker failed:\n{payload}")
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


def _barrier_merge(
    shards: list[list[int]],
    outs: list[WorkerOutSegment],
    round_index: int,
    n_services: int,
    balancer: FleetLoadBalancer,
    log: KnowledgeLogSegment,
    enabled: bool,
) -> tuple[list[float], list[float], int, tuple[int, int] | None]:
    """Process one completed round's worker outputs at the barrier.

    Reads the round-parity output buffers (zero-copy), rebalances, and
    appends the round's contributions to the shared knowledge log in
    replica order.  Returns ``(lb targets, per-service downtime,
    absorbed delta, appended log block or None)``.  Scoping the
    segment views to this function guarantees none outlive the round —
    a lingering view would pin the shared buffers open past teardown.
    """
    reads = [out.read_round(round_index) for out in outs]
    return _merge_round_reads(
        shards, reads, n_services, balancer, log, enabled
    )


def _merge_round_reads(
    shards: list[list[int]],
    reads: list[dict],
    n_services: int,
    balancer: FleetLoadBalancer,
    log: KnowledgeLogSegment,
    enabled: bool,
) -> tuple[list[float], list[float], int, tuple[int, int] | None]:
    """Merge one round's per-worker output columns (views or copies).

    The shared body of the barrier merge and the staleness executor's
    frontier merge: rebalance on the round's downtime and append its
    contributions to the shared log in replica order — the serial
    merge order, which is what keeps the log bytes identical across
    executors.
    """
    downtime = [0.0] * n_services
    absorbed = 0
    for shard, read in zip(shards, reads):
        for k, i in enumerate(sorted(shard)):
            downtime[i] = float(read["downtime"][k])
        absorbed += int(read["absorbed"].sum())
    lb_targets = balancer.rebalance(downtime)
    block = None
    if enabled and any(int(read["counts"].sum()) for read in reads):
        flat, lengths, sources, fix_codes, origin_codes = (
            _regroup_contributions(shards, reads)
        )
        block_lo = log.published
        log.append_batch(flat, lengths, sources, fix_codes, origin_codes)
        block = (block_lo, log.published)
    return lb_targets, downtime, absorbed, block


def _regroup_contributions(
    shards: list[list[int]], reads: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reorder per-worker round output into replica order.

    Each worker publishes its contributions grouped by member (in its
    shard's index order); the barrier merge must interleave shards
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
    staleness_rounds: int | float | None = None,
    track_slo: bool = False,
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
        barrier_timeout: seconds a round barrier may wait on shared
            memory before the campaign is declared hung.
        staleness_rounds: opt-in bounded-staleness knowledge exchange.
            ``None`` (the default) keeps the classic barrier executor.
            An integer ``K`` lets every replica absorb the shared
            knowledge log up to ``K`` rounds late: the parallel
            executor decouples the knowledge watermark from the round
            counter (workers read the freshest published watermark at
            dispatch time, the coordinator free-runs as a consumer of
            per-worker output rings), while the in-process runner
            models the same budget deterministically by absorbing up
            to the watermark recorded ``K`` rounds ago.  ``K = 0``
            reproduces the barrier semantics bit-exactly — same
            goldens, same telemetry event bytes (the CI equivalence
            gate pins this).  ``float("inf")`` removes the budget:
            sharded workers free-run against pure ring backpressure;
            the serial model never absorbs (the fully-stale limit).
            The observed per-round lag ledger lands in
            ``FleetResult.transport["staleness"]``.
        track_slo: keep every member's per-tick SLO timeline and grade
            each verified heal against the post-heal window
            (``FleetResult.slo_breaches_after_heal`` — the staleness
            ablation's healing-quality signal).  Requires the
            in-process runner (``workers=1``): the timelines live with
            the members and never cross the worker boundary.
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
    staleness = _normalize_staleness(staleness_rounds)
    if track_slo and workers > 1 and n_services > 1:
        raise ValueError(
            "track_slo requires the in-process runner (workers=1): "
            "SLO timelines live with the members and never cross the "
            "worker process boundary"
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
    if track_slo:
        member_kwargs["track_slo"] = True
    if pack is not None:
        member_kwargs["scenario"] = pack
    if recorder is not None:
        member_kwargs["recorder"] = recorder

    hub = None
    if events_path is not None:
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub()
        member_kwargs["telemetry"] = True

    knowledge = SharedKnowledgeBase(enabled=share_knowledge)
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

    staleness_ledger: dict | None = None
    slo_breaches: int | None = None
    use_workers = workers > 1 and n_services > 1
    if use_workers:
        runner_kwargs = dict(
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
            knowledge=knowledge,
            balancer=balancer,
            barrier_timeout=barrier_timeout,
            profile_dir=profile_dir,
            hub=hub,
            round_lags=round_lags,
        )
        if staleness is None:
            campaigns, absorbed_total, events_by_member, shard_perf = (
                _run_sharded(**runner_kwargs)
            )
        else:
            campaigns, absorbed_total, events_by_member, shard_perf = (
                _run_sharded_staleness(
                    staleness_rounds=staleness, **runner_kwargs
                )
            )
        barrier_wait_s = shard_perf["barrier_wait_s"]
        dispatch_wait_s = shard_perf["dispatch_wait_s"]
        merge_s = shard_perf["merge_s"]
        staleness_ledger = shard_perf.get("staleness")
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
        cursors = [0] * n_services
        watermark_history: list[int] = []
        serial_lag: list[int] = []
        for round_index in range(n_rounds):
            lo = round_index * episodes_per_round
            hi = min(lo + episodes_per_round, n_slots)
            watermark = knowledge.n_entries
            watermark_history.append(watermark)
            # Bounded-staleness (serial model): absorb only up to the
            # watermark recorded ``K`` rounds ago — the deterministic
            # worst case of the sharded executor's opportunistic
            # freshness.  ``K = 0`` absorbs to the current watermark,
            # exactly the classic barrier; ``inf`` never absorbs.
            if staleness is None or staleness == 0:
                absorb_watermark = watermark
                if staleness is not None:
                    serial_lag.append(0)
            elif staleness == float("inf"):
                absorb_watermark = 0
                serial_lag.append(round_index)
            else:
                behind = round_index - staleness
                absorb_watermark = (
                    watermark_history[behind] if behind >= 0 else 0
                )
                serial_lag.append(min(round_index, staleness))
            round_stats: list[FleetRoundStats] = []
            for i, member in enumerate(members):
                external, cursors[i] = knowledge.updates_window(
                    i, cursors[i], absorb_watermark
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
        if track_slo:
            # The corpus oracle's post-heal verdict, fleet-wide: clamp
            # the grading window to the settle time so the next slot's
            # injected fault never reads as a failed heal.
            from repro.scenarios.corpus import POST_HEAL_WINDOW

            window = min(POST_HEAL_WINDOW, settle_ticks)
            slo_breaches = sum(
                member.slo_breach_after_heal(window) for member in members
            )
        if staleness is not None:
            staleness_ledger = {
                "mode": "serial-delayed",
                "round_lag": serial_lag,
                "lag_max": max(serial_lag) if serial_lag else 0,
                "lag_mean": (
                    sum(serial_lag) / len(serial_lag)
                    if serial_lag
                    else 0.0
                ),
            }
        if hub is not None:
            member_event_streams = [
                member.telemetry.events for member in members
            ]

    trace_sha = None
    if recorder is not None:
        for i, campaign in enumerate(campaigns):
            recorder.summary(i, campaign.injected, campaign.undetected)
        trace_sha = recorder.close()

    staleness_repr = (
        None
        if staleness is None
        else ("inf" if staleness == float("inf") else staleness)
    )
    if staleness_ledger is not None:
        staleness_ledger = {"rounds": staleness_repr, **staleness_ledger}

    events_sha = None
    if hub is not None:
        if staleness is not None and staleness != 0:
            # K = 0 emits nothing extra: its event bytes must equal
            # the barrier executor's (the equivalence gate's telemetry
            # half).  K > 0 records its lag envelope in the log.
            hub.emit(
                "fleet_staleness",
                rounds=staleness_repr,
                lag_max=(
                    staleness_ledger["lag_max"]
                    if staleness_ledger is not None
                    else 0
                ),
                lag_mean=(
                    staleness_ledger["lag_mean"]
                    if staleness_ledger is not None
                    else 0.0
                ),
            )
        hub.emit(
            "fleet_end",
            rounds=n_rounds,
            entries=knowledge.n_entries,
            bytes=knowledge.data_bytes,
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
            "published_entries": knowledge.n_entries,
            "published_bytes": knowledge.data_bytes,
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
        # Bounded-staleness ledger (None when the classic barrier
        # executor ran): budget, observed per-round lag, and — for the
        # sharded executor — ring depth and consume-wait timing.
        "staleness": staleness_ledger,
    }

    return FleetResult(
        per_service=campaigns,
        schedule=schedule,
        n_services=n_services,
        episodes_per_service=episodes_per_service,
        seed=seed,
        workers=workers,
        share_knowledge=share_knowledge,
        staleness_rounds=staleness,
        slo_breaches_after_heal=slo_breaches,
        knowledge_entries=knowledge.n_entries,
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
    knowledge: SharedKnowledgeBase,
    balancer: FleetLoadBalancer,
    barrier_timeout: float,
    profile_dir: str | None,
    hub=None,
    round_lags: list[int] | None = None,
) -> tuple[list[CampaignResult], int, dict[int, list[dict]], dict]:
    """The coordinator side of the shared-memory parallel executor.

    Round protocol (after the one-time handshake):

    1. write ``(lb targets, knowledge watermark)`` for round R into
       the double-buffered control segment and release every worker's
       dispatch semaphore (the release fences the stores — including
       the shared-log append from the previous barrier that the
       watermark covers);
    2. with the workers now simulating round R, perform the *deferred*
       host-side merge of round R-1's contributions — a pure coded
       column append into the host knowledge base, overlapped with
       worker compute;
    3. acquire every worker's done semaphore, read downtime/absorb
       counts and contributions as zero-copy views of the round-parity
       output buffers, rebalance, and append the contributions to the
       shared knowledge log (in replica order — the serial merge
       order) ready for round R+1's watermark.
    """
    vocab_words = _transport_vocab()
    absorbed_total = 0
    if round_lags is None:
        round_lags = []
    barrier_wait_s: list[list[float]] = []
    merge_s = 0.0
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
        max_dim = max(_recv(conn) for conn in connections)
        log_entries = n_services * max(n_slots, 1) + 16
        log_data = log_entries * max(max_dim, 1)
        control = ControlSegment(n_services)
        log = KnowledgeLogSegment(log_entries, log_data)
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
                    out.n_slots,
                )
            )

        def workers_alive() -> None:
            for process, conn in zip(processes, connections):
                if conn.poll():
                    _recv(conn)  # raises with the worker's traceback
                if not process.is_alive():
                    raise RuntimeError(
                        "fleet worker died without reporting an error"
                    )

        def merge_pending_into_host_base() -> None:
            # Deferred host-side merge: the shared log already holds
            # the block (coordinator-owned, immutable), and the coded
            # string columns copy straight through.
            nonlocal pending
            if pending is None:
                return
            lo, hi = pending
            pending = None
            sources, fix_codes, origin_codes, bounds, data = (
                log.read_entries(lo, hi)
            )
            knowledge.contribute_batch_coded(
                data[int(bounds[0]) : int(bounds[-1])],
                np.diff(bounds),
                sources,
                fix_codes,
                origin_codes,
                vocab_words,
            )

        lb_targets = [1.0] * n_services
        pending: tuple[int, int] | None = None
        for round_index in range(n_rounds):
            watermark = log.published
            control.publish_round(
                round_index, log.published, lb_targets
            )
            for dispatch_sem in dispatch_sems:
                dispatch_sem.release()
            # The workers are simulating round R now — overlap the
            # host knowledge-base merge of round R-1's contributions
            # with their compute.
            merge_started = time.perf_counter()
            merge_pending_into_host_base()
            merge_s += time.perf_counter() - merge_started
            waits: list[float] = []
            for worker_id, done_sem in enumerate(done_sems):
                wait_started = time.perf_counter()
                acquire_with_liveness(
                    done_sem,
                    timeout=barrier_timeout,
                    liveness=workers_alive,
                    what=(
                        f"round {round_index} outputs "
                        f"(worker {worker_id})"
                    ),
                )
                waits.append(time.perf_counter() - wait_started)
            barrier_wait_s.append(waits)
            merge_started = time.perf_counter()
            lb_targets, downtime, absorbed, pending = _barrier_merge(
                shards,
                outs,
                round_index,
                n_services,
                balancer,
                log,
                knowledge.enabled,
            )
            merge_s += time.perf_counter() - merge_started
            # The merge's views are dropped; free the round's slot.
            # The next dispatch release fences this store for the
            # worker's write-guard read.
            for out in outs:
                out.mark_consumed(round_index)
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
        merge_started = time.perf_counter()
        merge_pending_into_host_base()
        merge_s += time.perf_counter() - merge_started

        per_service: dict[int, CampaignResult] = {}
        events_by_member: dict[int, list[dict]] = {}
        dispatch_wait_s: list[float] = []
        for conn in connections:
            conn.send(("finish",))
        for conn in connections:
            payload = _recv(conn)
            per_service.update(payload["results"])
            events_by_member.update(payload.get("events") or {})
            dispatch_wait_s.append(
                float(payload["perf"]["dispatch_wait_s"])
            )
        return (
            [per_service[i] for i in range(n_services)],
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


def _run_sharded_staleness(
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
    knowledge: SharedKnowledgeBase,
    balancer: FleetLoadBalancer,
    barrier_timeout: float,
    profile_dir: str | None,
    hub=None,
    round_lags: list[int] | None = None,
    staleness_rounds: int | float = 0,
) -> tuple[list[CampaignResult], int, dict[int, list[dict]], dict]:
    """The bounded-staleness coordinator: a free-running consumer.

    Where :func:`_run_sharded` runs one global barrier per round, this
    executor decouples dispatch from merge:

    * each worker has its own dispatch ring
      (:class:`StalenessControlSegment`); a dispatch carries the
      *freshest* merged watermark, not the round-numbered one — a
      worker dispatched early absorbs whatever the coordinator had
      merged at that instant;
    * dispatch is gated, per worker, by the staleness budget
      (``next_round - merge_frontier <= K``) and the output ring
      (``next_round - stashed < ring_slots``);
    * the coordinator drains finished rounds opportunistically
      (non-blocking semaphore acquires), copies each round's output
      out of its ring slot immediately (freeing the slot), and merges
      stashed rounds strictly in round order — replica order within a
      round — so the shared log's byte stream stays coherent;
    * it blocks only when nothing else can move, and then only on a
      worker that still owes the frontier round.

    Deadlock-free because a worker's stashed count never trails the
    frontier (its rounds ``< F`` are merged, hence stashed), so the
    frontier round always passes both dispatch gates.  With ``K = 0``
    the gates force dispatch of round R to wait for the full merge of
    round R-1 — exactly the barrier schedule, with the same log bytes,
    merge order, and ``fleet_round`` telemetry (pinned by the
    equivalence gate).
    """
    vocab_words = _transport_vocab()
    absorbed_total = 0
    if round_lags is None:
        round_lags = []
    merge_s = 0.0
    consume_wait_s = 0.0
    ring_slots = ring_slots_for(staleness_rounds)
    unbounded = staleness_rounds == float("inf")
    budget = None if unbounded else int(staleness_rounds)
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
    n_workers = len(shards)

    processes: list[multiprocessing.Process] = []
    connections = []
    dispatch_sems = []
    done_sems = []
    controls: list[StalenessControlSegment] = []
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
                    ring_slots,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            processes.append(process)
            connections.append(parent_conn)
            dispatch_sems.append(dispatch_sem)
            done_sems.append(done_sem)

        max_dim = max(_recv(conn) for conn in connections)
        log_entries = n_services * max(n_slots, 1) + 16
        log_data = log_entries * max(max_dim, 1)
        log = KnowledgeLogSegment(log_entries, log_data)
        for shard, conn in zip(shards, connections):
            control = StalenessControlSegment(ring_slots, n_services)
            controls.append(control)
            out_entries = 2 * len(shard) * episodes_per_round + 8
            out_data = out_entries * max(max_dim, 1)
            out = WorkerOutSegment(
                len(shard), out_entries, out_data, n_slots=ring_slots
            )
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
                    ring_slots,
                )
            )

        def workers_alive() -> None:
            for process, conn in zip(processes, connections):
                if conn.poll():
                    _recv(conn)  # raises with the worker's traceback
                if not process.is_alive():
                    raise RuntimeError(
                        "fleet worker died without reporting an error"
                    )

        lb_targets = [1.0] * n_services
        dispatched = [0] * n_workers
        stashed = [0] * n_workers
        frontier = 0
        stash: dict[tuple[int, int], dict] = {}

        def stash_round(worker_id: int) -> None:
            # Copy the finished round out of its ring slot and free
            # the slot immediately — the stash, not the segment, holds
            # the round until its turn at the merge frontier.
            r = stashed[worker_id]
            read = outs[worker_id].read_round(r)
            stash[(worker_id, r)] = {
                key: np.array(value, copy=True)
                for key, value in read.items()
            }
            outs[worker_id].mark_consumed(r)
            stashed[worker_id] = r + 1

        def merge_frontier_round() -> None:
            nonlocal lb_targets, absorbed_total, frontier, merge_s
            r = frontier
            reads = [stash.pop((w, r)) for w in range(n_workers)]
            merge_started = time.perf_counter()
            watermark = log.published
            lb_targets, downtime, absorbed, block = _merge_round_reads(
                shards,
                reads,
                n_services,
                balancer,
                log,
                knowledge.enabled,
            )
            if block is not None:
                # Host-base mirror of the appended block, immediately:
                # there is no barrier to defer it behind — the workers
                # are already free-running.
                lo, hi = block
                sources, fix_codes, origin_codes, bounds, data = (
                    log.read_entries(lo, hi)
                )
                knowledge.contribute_batch_coded(
                    data[int(bounds[0]) : int(bounds[-1])],
                    np.diff(bounds),
                    sources,
                    fix_codes,
                    origin_codes,
                    vocab_words,
                )
            merge_s += time.perf_counter() - merge_started
            absorbed_total += absorbed
            published = log.published - watermark
            round_lags.append(published)
            if hub is not None:
                hub.emit(
                    "fleet_round",
                    round=r,
                    watermark=watermark,
                    published=published,
                    absorbed=absorbed,
                    lag=published,
                    downtime=downtime,
                )
            frontier = r + 1

        while frontier < n_rounds:
            # Dispatch every worker as far as the gates allow.  The
            # watermark is whatever the log holds *now* — the
            # round-decoupled freshness that defines this mode.
            for w in range(n_workers):
                while (
                    dispatched[w] < n_rounds
                    and dispatched[w] - stashed[w] < ring_slots
                    and (
                        budget is None
                        or dispatched[w] - frontier <= budget
                    )
                ):
                    controls[w].publish_dispatch(
                        dispatched[w], log.published, frontier, lb_targets
                    )
                    dispatch_sems[w].release()
                    dispatched[w] += 1
            # Opportunistic drain: collect whatever finished, in any
            # worker order, freeing ring slots as we go.
            drained = False
            for w in range(n_workers):
                while stashed[w] < dispatched[w] and done_sems[
                    w
                ].acquire(False):
                    stash_round(w)
                    drained = True
            # Merge complete rounds strictly in round order.
            merged = False
            while frontier < n_rounds and all(
                stashed[w] > frontier for w in range(n_workers)
            ):
                merge_frontier_round()
                merged = True
            if merged or drained or frontier >= n_rounds:
                continue
            # Nothing moved: only the frontier round can unblock the
            # gates, so wait on a worker that still owes it.
            blocker = next(
                w for w in range(n_workers) if stashed[w] == frontier
            )
            wait_started = time.perf_counter()
            acquire_with_liveness(
                done_sems[blocker],
                timeout=barrier_timeout,
                liveness=workers_alive,
                what=(
                    f"round {frontier} outputs (worker {blocker}, "
                    f"staleness={staleness_rounds})"
                ),
            )
            consume_wait_s += time.perf_counter() - wait_started
            stash_round(blocker)

        per_service: dict[int, CampaignResult] = {}
        events_by_member: dict[int, list[dict]] = {}
        dispatch_wait_s: list[float] = []
        worker_lags: dict[int, list[int]] = {}
        worker_marks: dict[int, list[int]] = {}
        for conn in connections:
            conn.send(("finish",))
        for worker_id, conn in enumerate(connections):
            payload = _recv(conn)
            per_service.update(payload["results"])
            events_by_member.update(payload.get("events") or {})
            dispatch_wait_s.append(
                float(payload["perf"]["dispatch_wait_s"])
            )
            ledger = payload["perf"].get("staleness") or {}
            worker_lags[worker_id] = [
                int(v) for v in ledger.get("round_lag", [])
            ]
            worker_marks[worker_id] = [
                int(v) for v in ledger.get("watermark", [])
            ]
        all_lags = [lag for lags in worker_lags.values() for lag in lags]
        return (
            [per_service[i] for i in range(n_services)],
            absorbed_total,
            events_by_member,
            {
                "barrier_wait_s": [],
                "dispatch_wait_s": dispatch_wait_s,
                "merge_s": merge_s,
                "staleness": {
                    "mode": "sharded-async",
                    "ring_slots": ring_slots,
                    "round_lag": worker_lags,
                    "watermarks": worker_marks,
                    "lag_max": max(all_lags) if all_lags else 0,
                    "lag_mean": (
                        sum(all_lags) / len(all_lags) if all_lags else 0.0
                    ),
                    "consume_wait_s": consume_wait_s,
                },
            },
        )
    except BaseException:
        _terminate(processes)
        raise
    finally:
        for control in controls:
            control.abort()
        for conn in connections:
            conn.close()
        _join(processes)
        for segment in (*controls, log, *outs):
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
            f"sharing={'on' if result.share_knowledge else 'off'}"
            + (
                f", staleness={result.staleness_rounds}"
                if result.staleness_rounds is not None
                else ""
            )
            + ")"
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
