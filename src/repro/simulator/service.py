"""The composed multitier service.

``MultitierService`` wires workload -> web tier -> EJB container ->
database engine into one discrete-time system and exposes every
recovery mechanism Table 1 names (microreboot, tier reboot, full
restart, provisioning, statistics refresh, repartitioning, query kill,
configuration rollback) as methods with realistic downtime costs —
"microreboots ... usually done orders of magnitude faster than full
service restarts".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.database.engine import DatabaseEngine
from repro.simulator.config import ServiceConfig
from repro.simulator.ejb import EJBContainer
from repro.simulator.fastdraw import JITTER, BufferedNormal
from repro.simulator.rng import derive_rng
from repro.simulator.slo import SLO, SLOMonitor
from repro.simulator.tiers.app import AppTier
from repro.simulator.tiers.db import DatabaseTier
from repro.simulator.tiers.web import WebTier
from repro.simulator.workload import Workload, WorkloadProfile, bidding_profile

__all__ = ["MultitierService", "PendingTick", "TickSnapshot"]

# Client-side timeout: hung requests are charged this much latency.
TIMEOUT_MS = 8000.0
# Downtime (ticks) per recovery action — the fast-vs-slow spectrum of
# Table 1's fixes.  A microreboot is near-instant; a full restart of a
# J2EE stack takes minutes.
DOWNTIME_TICKS = {
    "microreboot": 0,
    "reboot_web": 2,
    "reboot_app": 5,
    "reboot_db": 8,
    "restart_service": 15,
}


@dataclass(slots=True)
class TickSnapshot:
    """Everything observable about one simulation tick.

    The monitoring collectors turn these into metric rows; nothing in
    here exposes ground-truth fault state — only symptoms.  Slotted:
    one of these is built every tick, and the fixed field layout makes
    construction and attribute reads measurably cheaper than a dict-
    backed instance at fleet-campaign scale.
    """

    tick: int
    available: bool
    request_counts: dict[str, int]
    total_requests: int
    errors: int
    error_rate: float
    latency_ms: float
    per_type_latency_ms: dict[str, float] = field(default_factory=dict)
    timeouts: int = 0
    # Web tier
    web_utilization: float = 0.0
    web_queue: float = 0.0
    web_response_ms: float = 0.0
    # App tier
    app_utilization: float = 0.0
    app_queue: float = 0.0
    app_response_ms: float = 0.0
    heap_used_mb: float = 0.0
    gc_overhead: float = 1.0
    threads_stuck: float = 0.0
    threads_active: float = 0.0
    call_matrix: np.ndarray | None = None
    caller_names: list[str] = field(default_factory=list)
    callee_names: list[str] = field(default_factory=list)
    ejb_invocations: dict[str, float] = field(default_factory=dict)
    ejb_errors: dict[str, int] = field(default_factory=dict)
    # Database tier
    db_utilization: float = 0.0
    db_queue: float = 0.0
    db_mean_service_ms: float = 0.0
    buffer_hit: dict[str, float] = field(default_factory=dict)
    lock_wait_ms: float = 0.0
    deadlocks: int = 0
    db_timeouts: int = 0
    est_act_ratio: float = 1.0
    plan_regret_ms: float = 0.0
    full_scans: int = 0
    index_scans: int = 0
    db_connections: int = 0
    stats_staleness: float = 1.0
    # Network
    network_ms: float = 0.0
    network_drops: int = 0
    # Configuration audit: 1.0 while a recent (human) configuration
    # push is inside the audit window — the telemetry that lets
    # operator errors be distinguished from look-alike hardware and
    # software failures.
    recent_config_change: float = 0.0
    # SLO
    slo_violated: bool = False


@dataclass(slots=True)
class PendingTick:
    """A tick split at the database-pricing boundary.

    ``begin_step`` advances the workload and the web/app tiers and
    stops just before the database engine prices the tick's query
    stream; ``finish_step`` resumes from there.  When the service is
    inside a downtime window the tick completes immediately and
    ``snapshot`` is already set.  The split exists for the fused fleet
    driver, which batches many members' engine pricing into one
    vectorized pass between the two halves.
    """

    now: int
    request_counts: dict[str, int]
    total: int
    snapshot: TickSnapshot | None = None
    web: object = None
    app: object = None
    query_counts: dict[str, float] | None = None


class MultitierService:
    """RUBiS on JBoss on MySQL, in discrete time.

    Args:
        config: sizing; defaults to :class:`ServiceConfig`.
        profile: workload mix; defaults to the RUBiS bidding mix.
        slo: service-level objective; defaults to 150 ms / 4% errors.
        pattern: workload arrival pattern (see :class:`Workload`).
        workload_options: extra :class:`Workload` keyword arguments
            (surge window/cadence, diurnal period) — how scenario
            packs shape arrivals without subclassing the service.
        container: EJB container override — how scenario packs swap in
            alternate blueprint/query universes (e.g. the wide mix).
            Defaults to the stock RUBiS container.
        db_engine: database engine override, paired with ``container``
            when the blueprints reference non-stock query templates.
            Defaults to a stock RUBiS engine sized from ``config``.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        profile: WorkloadProfile | None = None,
        slo: SLO | None = None,
        pattern: str = "constant",
        workload_options: dict | None = None,
        container: EJBContainer | None = None,
        db_engine: DatabaseEngine | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        seed = self.config.seed
        profile = profile if profile is not None else bidding_profile()

        self.workload = Workload(
            profile,
            self.config.arrival_rate,
            derive_rng(seed, "workload"),
            pattern=pattern,
            **(workload_options or {}),
        )
        if container is None:
            container = EJBContainer()
        engine = db_engine
        if engine is None:
            engine = DatabaseEngine(
                buffer_pages=self.config.db_buffer_pages,
                max_connections=self.config.db_max_connections,
            )
        # The web and database streams serve only the tiers'
        # service-time jitter, so both are block-buffered (bit-exact
        # to scalar draws; see repro.simulator.fastdraw).
        self.web = WebTier(
            self.config.web_workers,
            self.config.web_service_ms,
            BufferedNormal(derive_rng(seed, "web"), *JITTER),
        )
        self.app = AppTier(
            self.config.app_threads,
            self.config.heap_mb,
            derive_rng(seed, "app"),
            container=container,
        )
        self.db = DatabaseTier(
            self.config.db_workers,
            engine,
            container.blueprints,
            BufferedNormal(derive_rng(seed, "db"), *JITTER),
        )
        self.network_ms_per_hop = self.config.network_ms_per_hop
        self.network_multiplier = 1.0  # network-fault lever
        self.network_drop_rate = 0.0
        self._net_rng = derive_rng(seed, "network")

        self.slo = slo if slo is not None else SLO()
        self.slo_monitor = SLOMonitor(self.slo)
        self.tick = 0
        self.downtime_remaining = 0
        self.restart_count = 0
        self.admin_notifications: list[str] = []
        self.last_snapshot: TickSnapshot | None = None
        # Observers called with every snapshot the service produces —
        # trace recorders and workload feedback shapers (e.g. the
        # retry-storm amplifier) attach here without subclassing.
        self.tick_hooks: list = []
        # Tick of the most recent human configuration push (audit log).
        self._last_config_change_tick: int | None = None
        self.config_change_window = 25
        self._config_baseline = self._snapshot_config()

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    def step(self) -> TickSnapshot:
        """Advance one tick and return its observable snapshot."""
        pending = self.begin_step()
        if pending.snapshot is not None:
            return pending.snapshot
        return self.finish_step(pending)

    def begin_step(self) -> PendingTick:
        """First half of a tick: workload, downtime, web and app tiers.

        Stops at the database-pricing boundary; pass the result to
        :meth:`finish_step`.  Downtime ticks complete here (their
        snapshot carries no tier state), signalled by
        ``pending.snapshot`` being set.
        """
        now = self.tick
        self.tick += 1
        request_counts = self.workload.requests_at(now)
        total = sum(request_counts.values())
        pending = PendingTick(
            now=now, request_counts=request_counts, total=total
        )

        if self.downtime_remaining > 0:
            self.downtime_remaining -= 1
            snapshot = TickSnapshot(
                tick=now,
                available=False,
                request_counts=request_counts,
                total_requests=total,
                errors=total,
                error_rate=1.0 if total else 0.0,
                latency_ms=TIMEOUT_MS,
            )
            snapshot.slo_violated = self.slo_monitor.observe(
                snapshot.latency_ms, snapshot.error_rate
            )
            self.last_snapshot = snapshot
            for hook in self.tick_hooks:
                hook(snapshot)
            pending.snapshot = snapshot
            return pending

        for tier in (self.web, self.app, self.db):
            tier.tick_rolling()

        web = self.web.process(float(total))
        served_rate = max(0.0, float(total) - web.shed_requests)
        app = self.app.process(request_counts, served_rate)
        pending.web = web
        pending.app = app
        pending.query_counts = app.container.query_counts
        return pending

    def finish_step(self, pending: PendingTick, engine_result=None):
        """Second half of a tick: database, network, snapshot assembly.

        ``engine_result`` injects a pre-priced database tick (the fused
        driver's batched pass); ``None`` prices it here, which is the
        reference single-service path.
        """
        now = pending.now
        request_counts = pending.request_counts
        total = pending.total
        web = pending.web
        app = pending.app
        if engine_result is None:
            engine_result = self.db.engine.process_tick(
                pending.query_counts, now
            )
        db = self.db.attribute(
            engine_result, pending.query_counts, request_counts
        )

        network_ms = (
            4.0 * self.network_ms_per_hop * self.network_multiplier
        )
        network_drops = 0
        if self.network_drop_rate > 0 and total > 0:
            network_drops = int(
                self._net_rng.binomial(total, min(1.0, self.network_drop_rate))
            )

        per_type_latency: dict[str, float] = {}
        weighted_latency = 0.0
        served_total = 0
        app_mult = app.tier.delay_factor
        db_mult = db.tier.delay_factor
        app_ms_per_type = app.container.app_ms_per_type
        db_ms_per_type = db.db_ms_per_type
        # (web + network) is the first-grouped sum of the original
        # expression, so hoisting it preserves bit-exact latencies.
        web_plus_net = web.response_ms + network_ms
        gc_overhead = app.gc_overhead
        for request_type, count in request_counts.items():
            if count <= 0:
                continue
            app_ms = app_ms_per_type.get(request_type, 0.0)
            db_ms = db_ms_per_type.get(request_type, 0.0)
            latency = (
                web_plus_net
                + app_ms * gc_overhead * app_mult
                + db_ms * db_mult
            )
            per_type_latency[request_type] = latency
            weighted_latency += latency * count
            served_total += count

        container_errors = sum(app.container.errors_per_type.values())
        errors = (
            web.shed_requests
            + container_errors
            + app.oom_errors
            + db.engine.timeouts
            + network_drops
        )
        errors = min(errors, total)
        timeouts = app.container.hang_requests + db.engine.timeouts

        mean_latency = (
            weighted_latency / served_total if served_total > 0 else 0.0
        )
        if total > 0 and timeouts > 0:
            # Timed-out requests are observed at the client timeout.
            share = min(1.0, timeouts / total)
            mean_latency = (1 - share) * mean_latency + share * TIMEOUT_MS

        snapshot = TickSnapshot(
            tick=now,
            available=True,
            request_counts=request_counts,
            total_requests=total,
            errors=errors,
            error_rate=errors / total if total else 0.0,
            latency_ms=mean_latency,
            per_type_latency_ms=per_type_latency,
            timeouts=timeouts,
            web_utilization=web.utilization,
            web_queue=web.queue_length,
            web_response_ms=web.response_ms,
            app_utilization=app.tier.utilization,
            app_queue=app.tier.queue_length,
            app_response_ms=app.tier.response_ms,
            heap_used_mb=app.heap_used_mb,
            gc_overhead=app.gc_overhead,
            threads_stuck=app.threads_stuck,
            threads_active=app.tier.utilization * self.app.effective_capacity,
            call_matrix=app.container.call_matrix,
            caller_names=app.container.caller_names,
            callee_names=app.container.callee_names,
            ejb_invocations=app.container.invocations,
            ejb_errors=app.container.errors_per_type,
            db_utilization=db.tier.utilization,
            db_queue=db.tier.queue_length,
            db_mean_service_ms=db.engine.mean_service_ms,
            buffer_hit=db.engine.buffer_hit,
            lock_wait_ms=db.engine.lock_wait_ms,
            deadlocks=db.engine.deadlocks,
            db_timeouts=db.engine.timeouts,
            est_act_ratio=db.engine.est_act_ratio_max,
            plan_regret_ms=db.engine.plan_regret_ms,
            full_scans=db.engine.full_scans,
            index_scans=db.engine.index_scans,
            db_connections=db.engine.connections_in_use,
            stats_staleness=db.engine.max_staleness,
            network_ms=network_ms,
            network_drops=network_drops,
            recent_config_change=self._config_change_signal(now),
        )
        snapshot.slo_violated = self.slo_monitor.observe(
            snapshot.latency_ms, snapshot.error_rate
        )
        self.last_snapshot = snapshot
        for hook in self.tick_hooks:
            hook(snapshot)
        return snapshot

    def note_config_change(self) -> None:
        """Record a human configuration push in the audit log."""
        self._last_config_change_tick = self.tick

    def _config_change_signal(self, now: int) -> float:
        if self._last_config_change_tick is None:
            return 0.0
        age = now - self._last_config_change_tick
        return 1.0 if 0 <= age < self.config_change_window else 0.0

    def run(self, ticks: int) -> list[TickSnapshot]:
        """Advance ``ticks`` steps, returning every snapshot."""
        return [self.step() for _ in range(ticks)]

    # ------------------------------------------------------------------
    # Recovery mechanisms (Table 1's candidate fixes).
    # ------------------------------------------------------------------

    def microreboot_ejb(self, bean: str) -> None:
        """Microreboot one EJB [6] — near-instant, component-scoped."""
        self.app.container.microreboot(bean)
        self.downtime_remaining += DOWNTIME_TICKS["microreboot"]

    def kill_hung_query(self) -> str | None:
        """Abort the oldest hung database transaction."""
        return self.db.engine.kill_hung_query()

    def reboot_tier(self, tier: str) -> None:
        """Restart one tier, paying its downtime."""
        if tier == "web":
            self.web.reboot()
        elif tier == "app":
            self.app.reboot()
        elif tier == "db":
            self.db.reboot()
        else:
            raise ValueError(f"unknown tier {tier!r}")
        self.downtime_remaining += DOWNTIME_TICKS[f"reboot_{tier}"]

    def rolling_reboot_tier(self, tier: str, degraded_ticks: int = 10) -> None:
        """Planned rolling restart: no outage, briefly halved capacity.

        The mechanism proactive healing relies on (Section 5.3): because
        the fix is applied *before* the failure, it can be applied
        gracefully — instances recycle half at a time, leaked state is
        reclaimed, and users see at most some extra queueing.
        """
        target = {"web": self.web, "app": self.app, "db": self.db}.get(tier)
        if target is None:
            raise ValueError(f"unknown tier {tier!r}")
        target.begin_rolling_restart(degraded_ticks)
        if tier == "app":
            # Recycled instances start with fresh heaps and bean state.
            self.app.heap_used_mb = self.app.heap_mb * 0.30
            self.app.threads_stuck = 0.0
            self.app.container.reboot()
        elif tier == "db":
            self.db.engine.restart(self.tick)

    def restart_service(self) -> None:
        """Full service restart — the universal, expensive fix."""
        self.web.reboot()
        self.app.reboot()
        self.db.reboot()
        self.downtime_remaining += DOWNTIME_TICKS["restart_service"]
        self.restart_count += 1

    def provision_tier(self, tier: str, extra: int | None = None) -> int:
        """Add capacity to a tier [25]."""
        target = {"web": self.web, "app": self.app, "db": self.db}.get(tier)
        if target is None:
            raise ValueError(f"unknown tier {tier!r}")
        if extra is None:
            extra = max(1, target.capacity)  # default: double it
        return target.provision(extra)

    def update_statistics(self) -> None:
        """Refresh optimizer statistics (Table 1, suboptimal plan)."""
        self.db.engine.update_statistics(self.tick)

    def repartition_table(self, table: str | None = None) -> str:
        """Repartition the most contended table (or a named one)."""
        name = table or self.db.engine.most_contended_table()
        self.db.engine.repartition_table(name, factor=8)
        return name

    def repartition_memory(self) -> dict[str, float]:
        """Rebalance database buffer pools by demand [24]."""
        return self.db.engine.repartition_memory()

    def notify_administrator(self, reason: str) -> None:
        """Page a human — the fallback at the end of every policy."""
        self.admin_notifications.append(reason)

    # ------------------------------------------------------------------
    # Configuration snapshot / rollback (operator-error recovery).
    # ------------------------------------------------------------------

    def _snapshot_config(self) -> dict:
        return {
            "web_capacity": self.web.capacity,
            "web_service_ms": self.web.base_service_ms,
            "app_capacity": self.app.capacity,
            "heap_mb": self.app.heap_mb,
            "db_capacity": self.db.capacity,
            "db_max_connections": self.db.engine.max_connections,
            "buffer_shares": {
                name: pool.pages / self.db.engine.buffers.total_pages
                for name, pool in self.db.engine.buffers.pools.items()
            },
            "network_ms_per_hop": self.network_ms_per_hop,
        }

    def rollback_config(self) -> None:
        """Restore the last known-good configuration snapshot."""
        base = self._config_baseline
        self.web.capacity = base["web_capacity"]
        self.web.base_service_ms = base["web_service_ms"]
        self.app.capacity = base["app_capacity"]
        self.app.heap_mb = base["heap_mb"]
        self.db.capacity = base["db_capacity"]
        self.db.engine.max_connections = base["db_max_connections"]
        shares = dict(base["buffer_shares"])
        total = sum(shares.values())
        if total > 0:
            shares = {k: v / total for k, v in shares.items()}
            self.db.engine.buffers.set_shares(shares)
        self.network_ms_per_hop = base["network_ms_per_hop"]

    def commit_config_baseline(self) -> None:
        """Accept the current configuration as the new known-good state."""
        self._config_baseline = self._snapshot_config()
