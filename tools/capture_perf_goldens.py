"""Capture golden campaign statistics for the perf-equivalence tests.

The vectorized tick engine must reproduce the pre-optimization campaign
results bit-for-bit at fixed seeds.  This script runs the reference
campaigns (single-service, fleet, scenario record/replay) and freezes
every number the golden tests compare into
``tests/perf/golden_stats.json``.

Run it only when the simulation semantics *intentionally* change —
never to paper over an accidental divergence introduced by a perf
refactor::

    PYTHONPATH=src python tools/capture_perf_goldens.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.campaign import CampaignResult, run_campaign  # noqa: E402
from repro.fleet.campaign import run_fleet_campaign  # noqa: E402
from repro.scenarios.runner import (  # noqa: E402
    build_approach,
    replay_campaign,
    run_scenario,
)
from repro.simulator.config import ServiceConfig  # noqa: E402
from repro.simulator.service import MultitierService  # noqa: E402

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "perf",
    "golden_stats.json",
)

# The campaign shapes frozen into the goldens.  Small enough to run in
# CI, large enough to cross every hot path (detection, fix retries,
# escalation, settling).
SINGLE_SERVICE_CASES = [
    {"approach": "signature", "seed": 5, "n_episodes": 3},
    {"approach": "manual", "seed": 11, "n_episodes": 3},
]
FLEET_CASE = {"n_services": 2, "episodes_per_service": 2, "seed": 3}
# A 4-service shape so the worker-count equivalence tests can shard it
# across 2 and 4 workers; captured with the serial (workers=1) runner,
# the reference the sharded runner must reproduce.
FLEET_MULTI_CASE = {"n_services": 4, "episodes_per_service": 2, "seed": 11}
SCENARIO_CASE = {"name": "flash_crowd", "seed": 7, "n_episodes": 2}


def summarize_campaign(result: CampaignResult) -> dict:
    """Every number the golden tests compare, JSON-serializable."""
    return {
        "injected": result.injected,
        "undetected": result.undetected,
        "n_reports": len(result.reports),
        "escalation_rate": result.escalation_rate,
        "mean_attempts": result.mean_attempts,
        "mean_detection_ticks": result.mean_detection_ticks(),
        "mean_recovery_ticks": _nan_to_none(result.mean_recovery_ticks()),
        "reports": [
            {
                "event_id": r.event_id,
                "fault_kinds": list(r.fault_kinds),
                "fault_category": r.fault_category,
                "injected_at": r.injected_at,
                "detected_at": r.detected_at,
                "recovered_at": r.recovered_at,
                "applications": [
                    [a.kind, a.target] for a in r.applications
                ],
                "outcomes": list(r.outcomes),
                "successful_fix": r.successful_fix,
                "escalated": r.escalated,
                "admin_resolved": r.admin_resolved,
            }
            for r in result.reports
        ],
    }


def _nan_to_none(value: float) -> float | None:
    return None if value != value else value


def capture_single_service() -> list[dict]:
    cases = []
    for spec in SINGLE_SERVICE_CASES:
        service = MultitierService(ServiceConfig(seed=spec["seed"]))
        result = run_campaign(
            build_approach(spec["approach"]),
            n_episodes=spec["n_episodes"],
            seed=spec["seed"],
            service=service,
        )
        cases.append(
            {
                **spec,
                "final_tick": service.tick,
                "stats": summarize_campaign(result),
            }
        )
    return cases


def capture_fleet(case: dict) -> dict:
    result = run_fleet_campaign(workers=1, **case)
    return {
        **case,
        "stats": {
            "per_service": [
                summarize_campaign(r) for r in result.per_service
            ],
            "pooled": summarize_campaign(result.pooled),
            "knowledge_entries": result.knowledge_entries,
            "knowledge_absorbed": result.knowledge_absorbed,
        },
    }


def capture_scenario() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "golden.jsonl")
        run = run_scenario(
            SCENARIO_CASE["name"],
            seed=SCENARIO_CASE["seed"],
            n_episodes=SCENARIO_CASE["n_episodes"],
            record_path=trace,
        )
        replayed = replay_campaign(trace)
    return {
        **SCENARIO_CASE,
        "trace_sha256": run.trace_sha256,
        "stats": summarize_campaign(run.result),
        "replay_stats": summarize_campaign(replayed.result),
    }


def main() -> int:
    goldens = {
        "single_service": capture_single_service(),
        "fleet": capture_fleet(FLEET_CASE),
        "fleet_multi": capture_fleet(FLEET_MULTI_CASE),
        "scenario": capture_scenario(),
    }
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
