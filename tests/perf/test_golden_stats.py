"""Golden-stats equivalence tests for the vectorized tick engine.

The perf rework (vectorized collectors, mirrored ring buffer,
incremental tracer sums, inlined plan costing, blueprint codegen) is
required to be *bit-for-bit* behaviour-preserving: at a fixed seed a
campaign must produce exactly the episode reports and statistics the
pre-optimization implementation produced.  ``golden_stats.json`` was
captured from that implementation by ``tools/capture_perf_goldens.py``;
these tests replay the same campaigns and compare every recorded
number.

If one of these fails after an engine change, the change altered
simulation semantics (or RNG stream consumption) — that is a bug in
the change unless the semantic shift is intentional, in which case the
goldens must be deliberately regenerated and the change called out.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.experiments.campaign import CampaignResult, run_campaign
from repro.fleet.campaign import run_fleet_campaign
from repro.scenarios.runner import (
    build_approach,
    replay_campaign,
    run_scenario,
)
from repro.simulator.config import ServiceConfig
from repro.simulator.service import MultitierService

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")


@pytest.fixture(scope="module")
def goldens() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def assert_matches_golden(result: CampaignResult, golden: dict) -> None:
    """Compare a fresh campaign against one golden stats block."""
    assert result.injected == golden["injected"]
    assert result.undetected == golden["undetected"]
    assert len(result.reports) == golden["n_reports"]
    assert result.escalation_rate == golden["escalation_rate"]
    assert result.mean_attempts == golden["mean_attempts"]
    assert result.mean_detection_ticks() == golden["mean_detection_ticks"]
    recovery = result.mean_recovery_ticks()
    if golden["mean_recovery_ticks"] is None:
        assert math.isnan(recovery)
    else:
        assert recovery == golden["mean_recovery_ticks"]
    for report, expected in zip(result.reports, golden["reports"]):
        assert report.event_id == expected["event_id"]
        assert list(report.fault_kinds) == expected["fault_kinds"]
        assert report.fault_category == expected["fault_category"]
        assert report.injected_at == expected["injected_at"]
        assert report.detected_at == expected["detected_at"]
        assert report.recovered_at == expected["recovered_at"]
        assert [
            [a.kind, a.target] for a in report.applications
        ] == expected["applications"]
        assert list(report.outcomes) == expected["outcomes"]
        assert report.successful_fix == expected["successful_fix"]
        assert report.escalated == expected["escalated"]
        assert report.admin_resolved == expected["admin_resolved"]


class TestSingleServiceGoldens:
    def test_campaigns_reproduce_golden_stats(self, goldens):
        for case in goldens["single_service"]:
            service = MultitierService(ServiceConfig(seed=case["seed"]))
            result = run_campaign(
                build_approach(case["approach"]),
                n_episodes=case["n_episodes"],
                seed=case["seed"],
                service=service,
            )
            assert service.tick == case["final_tick"], case["approach"]
            assert result.total_ticks == case["final_tick"]
            assert_matches_golden(result, case["stats"])


def assert_fleet_matches_golden(result, stats: dict) -> None:
    assert result.knowledge_entries == stats["knowledge_entries"]
    assert result.knowledge_absorbed == stats["knowledge_absorbed"]
    for campaign, expected in zip(
        result.per_service, stats["per_service"]
    ):
        assert_matches_golden(campaign, expected)
    assert_matches_golden(result.pooled, stats["pooled"])


class TestFleetGoldens:
    def test_fleet_campaign_reproduces_golden_stats(self, goldens):
        case = goldens["fleet"]
        result = run_fleet_campaign(
            n_services=case["n_services"],
            episodes_per_service=case["episodes_per_service"],
            seed=case["seed"],
            workers=1,
        )
        assert_fleet_matches_golden(result, case["stats"])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_reproduces_golden_stats(self, goldens, workers):
        """Sharding is bit-identical to the serial runner.

        The ``fleet_multi`` golden was captured with the in-process
        runner; 2 workers shard its 4 replicas two-per-process and 4
        workers one-per-process — every per-report field and the
        knowledge counters must reproduce exactly."""
        case = goldens["fleet_multi"]
        result = run_fleet_campaign(
            n_services=case["n_services"],
            episodes_per_service=case["episodes_per_service"],
            seed=case["seed"],
            workers=workers,
        )
        assert_fleet_matches_golden(result, case["stats"])


class TestScenarioGoldens:
    def test_scenario_run_and_replay_reproduce_golden_stats(
        self, goldens, tmp_path
    ):
        case = goldens["scenario"]
        trace = str(tmp_path / "golden.jsonl")
        run = run_scenario(
            case["name"],
            seed=case["seed"],
            n_episodes=case["n_episodes"],
            record_path=trace,
        )
        # The trace bytes themselves are part of the contract: the
        # recorded telemetry hashes to the pre-optimization digest.
        assert run.trace_sha256 == case["trace_sha256"]
        assert_matches_golden(run.result, case["stats"])

        replayed = replay_campaign(trace)
        assert_matches_golden(replayed.result, case["replay_stats"])
