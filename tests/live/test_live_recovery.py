"""End-to-end live healing: kill a real process, demand a verified
recovery with a full audit trail.

This is the PR's acceptance scenario (and the CI ``live-smoke`` job):
three real tiers come up, the db worker is SIGKILLed, the unmodified
monitoring chain detects it from real samples, the policy engine
authorizes a restart, and verification confirms the fleet is healthy
again — all inside a bounded wall-clock budget.
"""

from __future__ import annotations

import pytest

from repro.live.runner import FaultSpec, run_demo, run_live
from repro.telemetry.hub import load_events


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    events = str(tmp_path_factory.mktemp("live") / "events.jsonl")
    result = run_demo(seed=0, budget_s=45.0, events_path=events)
    return result, events


class TestDemoRecovery:
    def test_gate_passes(self, demo):
        result, _ = demo
        assert result.failures == []
        assert result.ok

    def test_db_restart_is_verified_success(self, demo):
        result, _ = demo
        episodes = [
            episode for episode in result.episodes
            if episode["service"] == "db" and episode["recovered"]
        ]
        assert episodes
        records = episodes[0]["records"]
        wins = [
            record for record in records if record["outcome"] == "success"
        ]
        assert wins
        assert wins[-1]["action"] == "restart_service"
        assert wins[-1]["trigger"] == "liveness"
        # The audit captured the outage and the recovery.
        assert wins[-1]["before_state"].get("live.up") == 0.0
        assert wins[-1]["after_state"].get("live.up") == 1.0

    def test_restarted_worker_is_a_new_process(self, demo):
        result, _ = demo
        assert result.services["db"]["restarts"] >= 1

    def test_engine_ledger_matches_episodes(self, demo):
        result, _ = demo
        report = result.engine_report
        assert report["total_executed"] >= 1
        assert report["by_outcome"].get("success", 0) >= 1

    def test_event_log_renders_with_the_stock_report_stack(self, demo):
        result, events_path = demo
        header, events = load_events(events_path)
        assert header["backend"] == "live"
        kinds = {event["type"] for event in events}
        assert {"episode_start", "phase", "audit", "episode_end"} <= kinds
        audits = [
            event for event in events
            if event["type"] == "audit" and event["success"]
        ]
        assert audits
        assert audits[-1]["action_taken"] == "restart_service"

        from repro.telemetry.report import format_report

        text = format_report(header, events)
        assert "recovered via restart_service" in text


class TestRunGate:
    def test_unhealed_fault_fails_the_gate(self):
        """A fault scheduled after the budget ends never injects — the
        structural gate must say so instead of reporting success."""
        result = run_live(
            n_services=1,
            duration_s=1.0,
            faults=[FaultSpec("tier_capacity_loss", "web", at_seconds=60.0)],
            stop_when_healed=False,
        )
        assert not result.ok
        assert any("never injected" in failure for failure in result.failures)
