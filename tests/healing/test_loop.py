"""Tests for the end-to-end self-healing loop."""

import pytest

from repro.core.approaches.bottleneck import BottleneckAnalysisApproach
from repro.core.approaches.manual import ManualRuleBased, Rule
from repro.core.approaches.signature import SignatureApproach
from repro.core.synopses import NearestNeighborSynopsis
from repro.faults.app_faults import DeadlockedThreadsFault
from repro.faults.db_faults import StaleStatisticsFault
from repro.faults.infra_faults import TierCapacityLossFault
from repro.faults.injector import FaultInjector
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.healing.loop import SelfHealingLoop
from repro.scenarios.runner import run_scenario
from repro.simulator.config import ServiceConfig
from repro.simulator.service import MultitierService
from repro.telemetry import load_events


def _loop(approach, seed=11, threshold=5):
    service = MultitierService(ServiceConfig(seed=seed))
    injector = FaultInjector(service)
    loop = SelfHealingLoop(
        service, approach, injector=injector, threshold=threshold, seed=seed
    )
    loop.warmup()
    return service, injector, loop


class TestHealing:
    def test_bottleneck_approach_heals_capacity_loss(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        injector.inject(TierCapacityLossFault("app"), service.tick)
        reports = loop.run(250)
        assert len(reports) == 1
        report = reports[0]
        assert report.recovered
        assert not report.escalated
        assert report.successful_fix == "provision_tier"
        assert report.fault_kinds == ("tier_capacity_loss",)
        assert report.detection_ticks >= 0
        assert report.repair_ticks > 0

    def test_signature_approach_learns_across_episodes(self):
        approach = SignatureApproach(NearestNeighborSynopsis(ALL_FIX_KINDS))
        service, injector, loop = _loop(approach)
        injector.inject(DeadlockedThreadsFault("ItemBean"), service.tick)
        first = loop.run(400)[0]
        assert first.recovered
        samples_after_first = approach.synopsis.n_samples
        assert samples_after_first >= 1

        injector.inject(DeadlockedThreadsFault("ItemBean"), service.tick)
        second = loop.run(400)[0]
        assert second.recovered
        # The recurrence should need no more attempts than first time.
        assert second.attempts <= first.attempts

    def test_escalation_path_reaches_admin(self):
        # Rules that recommend only a useless fix for stale statistics:
        # the loop must walk Figure 3's lines 18-20.
        rules = [Rule("useless", lambda e: True, "kill_hung_query")]
        service, injector, loop = _loop(
            ManualRuleBased(rules), threshold=2
        )
        injector.inject(StaleStatisticsFault(), service.tick)
        reports = loop.run(200)
        assert len(reports) == 1
        report = reports[0]
        assert report.escalated
        # Restart was tried (line 19) but statistics survive restarts,
        # so the administrator had to finish it.
        assert report.admin_resolved
        assert report.recovered
        assert "notify_admin" in [a.kind for a in report.applications]
        assert not injector.any_active

    def test_report_phases_are_consistent(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        injector.inject(TierCapacityLossFault("db"), service.tick)
        report = loop.run(250)[0]
        assert report.injected_at <= report.detected_at
        assert report.detected_at <= report.recovered_at
        assert report.recovery_ticks == (
            report.detection_ticks + report.repair_ticks
        )


class TestVerifySeam:
    """Every verification runs through ``SelfHealingLoop._verify_gen``.

    perfbench's ``healing.verify`` span replaces that generator on the
    class and reads its ``(fixed, used)`` return, and
    ``healing.verify_ticks_mean`` is computed from what it reads.
    """

    def test_wrapper_sees_every_verify_phase(self, monkeypatch, tmp_path):
        seen: list[tuple[bool, int]] = []
        original = SelfHealingLoop._verify_gen

        def counting(*args, **kwargs):
            result = yield from original(*args, **kwargs)
            seen.append(result)
            return result

        monkeypatch.setattr(SelfHealingLoop, "_verify_gen", counting)
        events_path = tmp_path / "events.jsonl"
        run_scenario(
            "black_friday", seed=3, n_episodes=6, events_path=str(events_path)
        )
        _, events = load_events(str(events_path))
        verifies = [
            event
            for event in events
            if event["type"] == "phase" and event["phase"] == "verify"
        ]
        # Escalations verify the restart and the administrator's repair
        # too, so the case covers all three call sites.
        assert any(e["fix"] == "administrator" for e in verifies)
        assert any(e["fix"] == "restart_service" for e in verifies)
        assert len(seen) == len(verifies)
        assert sum(used for _, used in seen) == sum(
            event["end"] - event["start"] for event in verifies
        )
        assert [fixed for fixed, _ in seen] == [
            event["success"] for event in verifies
        ]


class TestLoopValidation:
    def test_threshold_validated(self):
        service = MultitierService(ServiceConfig(seed=1))
        with pytest.raises(ValueError):
            SelfHealingLoop(service, BottleneckAnalysisApproach(), threshold=0)

    def test_warmup_required_amount(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        assert loop.harness.baseline.ready


class TestAttemptLedger:
    """The retry-bookkeeping piece shared with the live loop."""

    def test_fresh_ledger_allows_everything(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        assert ledger.allows("restart_service")
        assert ledger.excluded == set()

    def test_repeat_failure_on_same_target_excludes_the_kind(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("restart_service", "db", fixed=False)
        assert ledger.allows("restart_service")
        ledger.note("restart_service", "db", fixed=False)
        assert not ledger.allows("restart_service")

    def test_new_target_keeps_the_kind_available(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("restart_service", "db:100", fixed=False)
        ledger.note("restart_service", "db:200", fixed=False)
        assert ledger.allows("restart_service")

    def test_success_never_excludes(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("clear_cache", "db", fixed=False)
        ledger.note("clear_cache", "db", fixed=True)
        assert ledger.allows("clear_cache")
