"""Scenario packs — healing behavior across workload regimes.

Runs every scenario pack as a seeded campaign and reports the
detection / repair / recovery latency profile per scenario, the
diversity sweep the roadmap asks for ("open a new workload") beyond
the paper's steady-state evaluation.  Expectations verified:

* every pack runs green: faults are detected and episodes conclude;
* the packs genuinely differ — slow_burn's creeping failures take
  longer to *detect* than the crash-style packs' failures;
* record→replay round-trips reproduce campaign statistics exactly
  (the byte-identical-telemetry comparison substrate).

The benchmark kernel times trace serialization — the record-side hot
path that runs once per simulated tick.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import scale
from repro.scenarios.packs import list_scenarios
from repro.scenarios.runner import (
    format_scenario,
    replay_campaign,
    run_scenario,
)
from repro.scenarios.trace import snapshot_to_payload, _dumps

SEED = 7


@pytest.fixture(scope="module")
def scenario_results():
    episodes = scale(3, 6)
    return {
        pack.name: run_scenario(pack.name, seed=SEED, n_episodes=episodes)
        for pack in list_scenarios()
    }


def test_all_scenarios_run_green(scenario_results):
    print()
    print(f"{'scenario':<14} {'episodes':>8} {'undet':>6} "
          f"{'detect':>7} {'repair':>7} {'recover':>8} {'escal':>6}")
    for name, run in sorted(scenario_results.items()):
        result = run.result
        detect = result.mean_detection_ticks()
        recover = result.mean_recovery_ticks()
        repair = (
            recover - detect
            if np.isfinite(recover) and np.isfinite(detect)
            else float("nan")
        )
        print(
            f"{name:<14} {len(result.reports):>8} {result.undetected:>6} "
            f"{detect:>7.1f} {repair:>7.1f} {recover:>8.1f} "
            f"{result.escalation_rate:>6.2f}"
        )
    for name, run in scenario_results.items():
        result = run.result
        assert result.injected > 0, f"{name}: no faults injected"
        assert result.reports, f"{name}: no episodes concluded"
        assert np.isfinite(
            result.mean_detection_ticks()
        ), f"{name}: no detections"


def test_slow_burn_detects_slowest(scenario_results):
    """Creeping degradation hides from the SLO longer than crashes."""
    slow = scenario_results["slow_burn"].result.mean_detection_ticks()
    crash_like = [
        scenario_results[name].result.mean_detection_ticks()
        for name in ("retry_storm", "black_friday")
    ]
    assert slow > max(crash_like)


def test_round_trip_reproduces_statistics(tmp_path, scenario_results):
    """Record → replay equality on a real scenario campaign."""
    path = tmp_path / "flash_crowd.jsonl"
    recorded = run_scenario(
        "flash_crowd",
        seed=SEED,
        n_episodes=scale(2, 4),
        record_path=str(path),
    )
    replayed = replay_campaign(str(path))
    assert format_scenario(replayed) == format_scenario(recorded)
    print()
    print(format_scenario(recorded))
    print(f"trace sha256: {recorded.trace_sha256}")


def test_trace_serialization_kernel(warmed_snapshot, benchmark):
    """Time the per-tick record hot path (snapshot -> JSONL line)."""
    result = benchmark(
        lambda: _dumps(
            {"type": "tick", "member": 0,
             "s": snapshot_to_payload(warmed_snapshot)}
        )
    )
    assert '"type":"tick"' in result


@pytest.fixture(scope="module")
def warmed_snapshot():
    from repro.simulator.config import ServiceConfig
    from repro.simulator.service import MultitierService

    service = MultitierService(ServiceConfig(seed=SEED))
    return service.run(30)[-1]
