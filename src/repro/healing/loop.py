"""The reactive self-healing loop.

``HealingHarness`` owns the monitoring plumbing around one service
(collector, store, baseline, tracer, detector); ``SelfHealingLoop``
drives the Figure 3 control flow on top of it:

    detect failure -> ask the approach for a fix -> apply -> verify ->
    update the approach -> retry up to THRESHOLD -> escalate
    (restart + notify administrator, who eventually repairs by hand).

The loop never consults fault ground truth for decisions — only the
SLO tells it whether a fix worked ("check whether F recovers the
service to a working state", Section 3).  Ground truth is read only to
annotate episode reports for the benchmarks.
"""

from __future__ import annotations

from repro.core.approaches.base import FixIdentifier
from repro.faults.injector import FaultInjector
from repro.fixes.catalog import NOTIFY_ADMIN, RESTART_SERVICE, build_fix
from repro.healing.report import EpisodeReport
from repro.monitoring.baseline import BaselineModel
from repro.monitoring.collectors import MetricCollector
from repro.monitoring.detector import FailureDetector, FailureEvent
from repro.monitoring.timeseries import MetricStore
from repro.monitoring.tracing import CallMatrixTracer
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService, TickSnapshot
from repro.telemetry.healing import HealingTelemetry

__all__ = [
    "AttemptLedger",
    "HealingHarness",
    "SelfHealingLoop",
]


class AttemptLedger:
    """Figure 3's retry bookkeeping, shared by the sim and live loops.

    A fix kind stays available after a failed attempt as long as its
    auto-targeting keeps finding *new* targets — "bottlenecks can
    shift dynamically across tiers" [25], so a second provisioning
    round must be allowed to chase the new hot tier.  Once a
    ``(kind, target)`` pair repeats without success, the kind is
    exhausted and lands in :attr:`excluded`.
    """

    def __init__(self) -> None:
        self.excluded: set[str] = set()
        self._tried: set[tuple[str, str | None]] = set()

    def note(self, kind: str, target: str | None, fixed: bool) -> None:
        """Record one attempt's identity and outcome."""
        pair = (kind, target)
        if not fixed and pair in self._tried:
            self.excluded.add(kind)
        self._tried.add(pair)

    def allows(self, kind: str) -> bool:
        return kind not in self.excluded

# Mean human diagnosis/repair delay (ticks) by failure cause.  Operator
# errors take longest: "it is the human component of the system that
# needs to recover from the failure it has caused" (Section 2), and the
# admin must reconstruct what changed.
ADMIN_DELAY_MEAN = {
    "operator": 700.0,
    "software": 280.0,
    "hardware": 350.0,
    "network": 220.0,
    "unknown": 450.0,
}


class HealingHarness:
    """Monitoring plumbing around one service.

    Args:
        service: the live service.
        include_invasive: collect EJB-level (invasive) metrics and call
            traces; set False to model a legacy deployment.
        baseline_window / current_window: Nb and Nc.
        violation_ticks / recovery_ticks: detector debounce windows.
    """

    def __init__(
        self,
        service: MultitierService,
        include_invasive: bool = True,
        baseline_window: int = 120,
        current_window: int = 8,
        violation_ticks: int = 3,
        recovery_ticks: int = 5,
    ) -> None:
        self.service = service
        self.collector = MetricCollector(include_invasive=include_invasive)
        self.store = MetricStore(self.collector.names, capacity=4096)
        self.baseline = BaselineModel(
            self.store, baseline_window, current_window
        )
        self.tracer: CallMatrixTracer | None = None
        self.include_invasive = include_invasive
        self.detector = FailureDetector(
            self.baseline,
            tracer=None,
            violation_ticks=violation_ticks,
            recovery_ticks=recovery_ticks,
        )
        # The most recently collected metric row (set by observe).
        # The loop feeds it to the approach without re-reading the
        # store; collect() allocates a fresh row every tick, so no
        # aliasing into the ring buffer is possible.
        self.last_row = None

    def observe(self, snapshot: TickSnapshot) -> FailureEvent | None:
        """Record one tick; return a failure event if one fires."""
        row = self.collector.collect(snapshot)
        self.last_row = row
        self.store.append(snapshot.tick, row)
        if self.include_invasive and snapshot.call_matrix is not None:
            if self.tracer is None:
                self.tracer = CallMatrixTracer(
                    snapshot.caller_names,
                    snapshot.callee_names,
                    self.baseline.baseline_window,
                    self.baseline.current_window,
                )
                self.detector.tracer = self.tracer
            self.tracer.observe(snapshot.call_matrix)

        healthy = not snapshot.slo_violated and not self.detector.in_failure
        if healthy and len(self.store) >= self.baseline.baseline_window:
            self.baseline.fit_baseline()
            if self.tracer is not None:
                self.tracer.freeze_baseline()
        if not self.baseline.ready:
            return None
        return self.detector.observe(snapshot.tick, snapshot.slo_violated)


class SelfHealingLoop:
    """Figure 3's procedure driving a fix-identification approach.

    Args:
        service: the live service.
        approach: any :class:`FixIdentifier` (FixSym, diagnosis-based,
            manual rules, combined, adaptive).
        injector: fault injector (supplies ground-truth annotations and
            executes the administrator's oracle repair).
        threshold: Figure 3's THRESHOLD before escalation.
        verify_ticks: max ticks to wait for a fix to show effect.
        stable_ticks: consecutive compliant ticks that count as "fixed".
        include_invasive: forwarded to the harness.
        seed: randomness for the admin-delay sampler.
        telemetry: optional :class:`HealingTelemetry` flight recorder.
            Strictly observational — it is consulted at episode
            granularity behind ``None`` checks and never influences a
            decision, so results are identical with it on or off.
    """

    def __init__(
        self,
        service: MultitierService,
        approach: FixIdentifier,
        injector: FaultInjector | None = None,
        threshold: int = 5,
        verify_ticks: int = 40,
        stable_ticks: int = 6,
        include_invasive: bool = True,
        baseline_window: int = 120,
        current_window: int = 8,
        violation_ticks: int = 3,
        seed: int = 1234,
        telemetry: HealingTelemetry | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.service = service
        self.approach = approach
        self.injector = injector
        self.threshold = threshold
        self.verify_ticks = verify_ticks
        self.stable_ticks = stable_ticks
        self.harness = HealingHarness(
            service,
            include_invasive=include_invasive,
            baseline_window=baseline_window,
            current_window=current_window,
            violation_ticks=violation_ticks,
        )
        self._admin_rng = derive_rng(seed, "admin")
        self.reports: list[EpisodeReport] = []
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Time advancement.
    # ------------------------------------------------------------------

    def step_once(self) -> tuple[TickSnapshot, FailureEvent | None]:
        """Advance the world one tick through the full observation path.

        Steps the service, evolves active faults, feeds the harness
        *and* the approach (both must see an unbroken metric stream —
        correlation-style approaches window over it), and returns the
        snapshot plus any failure event the detector raised.  Every
        tick the loop spends — warmup, healing, verification, and the
        campaign's inter-episode settling — goes through here.
        """
        snapshot = self.service.step()
        if self.injector is not None:
            self.injector.on_tick(self.service.tick)
        event = self.harness.observe(snapshot)
        self.approach.observe_tick(self.harness.last_row, snapshot.slo_violated)
        return snapshot, event

    def warmup(self, ticks: int | None = None) -> None:
        """Run fault-free until the baseline is established."""
        ticks = ticks if ticks is not None else (
            self.harness.baseline.baseline_window
            + self.harness.baseline.current_window + 10
        )
        for _ in range(ticks):
            self.step_once()
        if not self.harness.baseline.ready:
            raise RuntimeError("baseline not ready after warmup")

    def run(self, ticks: int) -> list[EpisodeReport]:
        """Advance; heal every detected failure along the way.

        Episodes consume ticks from the same budget (healing happens in
        real time).  Returns the episode reports completed in this run.
        """
        completed_before = len(self.reports)
        remaining = ticks
        while remaining > 0:
            _, event = self.step_once()
            remaining -= 1
            if event is not None:
                remaining -= self.heal(event)
        return self.reports[completed_before:]

    # ------------------------------------------------------------------
    # One episode (Figure 3 lines 5-21).
    # ------------------------------------------------------------------

    def heal(self, event: FailureEvent) -> int:
        """Heal one failure; returns the number of ticks consumed."""
        report = self._new_report(event)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.episode_start(report, event)
        ticks_used = 0
        ledger = AttemptLedger()
        fixed = False
        count = 0

        while not fixed and count < self.threshold:
            recommendations = self.approach.recommend(
                event, exclude=ledger.excluded
            )
            if not recommendations:
                break
            recommendation = recommendations[0]
            before_state: dict = {}
            apply_tick = self.service.tick
            if telemetry is not None:
                before_state = telemetry.capture_state(self.harness)
            application = recommendation.build().apply(self.service, event)
            if self.injector is not None:
                self.injector.apply_fix(application, self.service.tick)
            ticks_used += self._pay(application.cost_ticks)
            repaired_tick = self.service.tick
            fixed, used = self._verify()
            ticks_used += used
            self.approach.observe_outcome(event, recommendation, fixed)
            report.applications.append(application)
            report.outcomes.append(fixed)
            if telemetry is not None:
                telemetry.record_attempt(
                    report,
                    application,
                    fixed,
                    attempt=len(report.applications),
                    apply_tick=apply_tick,
                    repaired_tick=repaired_tick,
                    verified_tick=self.service.tick,
                    before_state=before_state,
                    harness=self.harness,
                )
            ledger.note(application.kind, application.target, fixed)
            count += 1

        if fixed:
            report.successful_fix = report.applications[-1].kind
            report.recovered_at = self.service.tick
        else:
            ticks_used += self._escalate(event, report)

        self.reports.append(report)
        if telemetry is not None:
            telemetry.episode_end(report)
        return ticks_used

    def _escalate(self, event: FailureEvent, report: EpisodeReport) -> int:
        """Figure 3 lines 18-20: restart, notify, learn the admin's fix."""
        report.escalated = True
        telemetry = self.telemetry
        ticks_used = 0

        before_state: dict = {}
        apply_tick = self.service.tick
        if telemetry is not None:
            before_state = telemetry.capture_state(self.harness)
        restart = build_fix(RESTART_SERVICE).apply(self.service, event)
        if self.injector is not None:
            self.injector.apply_fix(restart, self.service.tick)
        report.applications.append(restart)
        ticks_used += self._pay(restart.cost_ticks)
        repaired_tick = self.service.tick
        fixed, used = self._verify()
        ticks_used += used
        report.outcomes.append(fixed)
        if telemetry is not None:
            telemetry.record_attempt(
                report,
                restart,
                fixed,
                attempt=len(report.applications),
                apply_tick=apply_tick,
                repaired_tick=repaired_tick,
                verified_tick=self.service.tick,
                before_state=before_state,
                harness=self.harness,
                stage="escalation_restart",
            )
        if fixed:
            report.successful_fix = RESTART_SERVICE
            report.recovered_at = self.service.tick
            self.approach.observe_admin_fix(event, RESTART_SERVICE)
            return ticks_used

        if telemetry is not None:
            before_state = telemetry.capture_state(self.harness)
        notify = build_fix(NOTIFY_ADMIN).apply(self.service, event)
        report.applications.append(notify)
        report.outcomes.append(False)
        ticks_used += self._pay(notify.cost_ticks)
        notified_tick = self.service.tick
        if telemetry is not None:
            telemetry.record_notify(
                report, notify, notified_tick, before_state, self.harness
            )

        # The human arrives after a cause-dependent delay and repairs
        # by hand (injector oracle).
        category = report.fault_category
        delay = self._sample_admin_delay(category)
        ticks_used += self._pay(delay)
        arrived_tick = self.service.tick
        if telemetry is not None:
            before_state = telemetry.capture_state(self.harness)
        admin_fix: str | None = None
        if self.injector is not None:
            cleared = self.injector.clear_all(
                self.service.tick, cleared_by="administrator"
            )
            if cleared:
                admin_fix = cleared[0].canonical_fix
        fixed, used = self._verify()
        ticks_used += used
        report.admin_resolved = True
        if fixed:
            report.recovered_at = self.service.tick
        if telemetry is not None:
            telemetry.record_admin(
                report,
                admin_fix,
                fixed,
                notified_tick=notified_tick,
                arrived_tick=arrived_tick,
                verified_tick=self.service.tick,
                before_state=before_state,
                harness=self.harness,
            )
        if admin_fix is not None:
            # Line 20: "Update synopsis S with fix found by the admin."
            self.approach.observe_admin_fix(event, admin_fix)
        return ticks_used

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _pay(self, cost_ticks: int) -> int:
        cost_ticks = max(0, cost_ticks)
        for _ in range(cost_ticks):
            self.step_once()
        return cost_ticks

    def _verify(self) -> tuple[bool, int]:
        # The benchmark's ``healing.verify`` span (perfbench/spans.py)
        # wraps ``_verify_gen`` on the class as a generator and reads
        # its ``(fixed, used)`` return, so verification stays a
        # generator, pumped here one step_once() per tick and looked
        # up on ``self`` so the wrapper sees every call.
        verify = self._verify_gen()
        try:
            verify.send(None)
            while True:
                verify.send(self.step_once())
        except StopIteration as stop:
            return stop.value

    def _verify_gen(self):
        """Check-fix: wait for sustained SLO compliance.

        "Care should be taken to let the service recover fully"
        (Section 4.1) — hence the stable-streak requirement rather than
        a single compliant tick.
        """
        streak = 0
        for used in range(1, self.verify_ticks + 1):
            snapshot, _ = yield
            streak = streak + 1 if not snapshot.slo_violated else 0
            if streak >= self.stable_ticks:
                return True, used
        return False, self.verify_ticks

    def _sample_admin_delay(self, category: str) -> int:
        mean = ADMIN_DELAY_MEAN.get(category, ADMIN_DELAY_MEAN["unknown"])
        jitter = float(self._admin_rng.lognormal(mean=0.0, sigma=0.35))
        return int(max(30.0, mean * jitter))

    def _new_report(self, event: FailureEvent) -> EpisodeReport:
        fault_kinds: tuple[str, ...] = ()
        category = "unknown"
        injected_at = event.detected_at
        if self.injector is not None and self.injector.active:
            faults = self.injector.active
            fault_kinds = tuple(fault.kind for fault in faults)
            category = faults[0].category
            injected_at = min(
                fault.injected_at
                for fault in faults
                if fault.injected_at is not None
            )
        return EpisodeReport(
            event_id=event.event_id,
            fault_kinds=fault_kinds,
            fault_category=category,
            injected_at=injected_at,
            detected_at=event.detected_at,
        )
