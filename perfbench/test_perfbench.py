"""Tests for the benchmark's own code (spans, checks, metric names, inputs).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.experiments.campaign import CampaignResult  # noqa: E402
from repro.healing.report import EpisodeReport  # noqa: E402

from perfbench import checks, metrics, spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_once_and_clips_to_parent():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping) and
    # c [9,12] (runs past the root); a has a grandchild g [2,3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    own = spans.self_times(start, end, parent)
    # root: 10 - |[1,6] u [9,10]| = 10 - 6
    assert own == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_summarizes_self_time():
    recorder = spans.SpanRecorder()
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    top = recorder.begin(outer, root=True)
    child = recorder.begin(inner)
    recorder.finish(child)
    recorder.finish(top)
    assert recorder.parent == [-1, 0]
    assert recorder.tick == [0, 0]
    table = spans.summarize(recorder)
    assert table["outer"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"]
    )


def test_install_wraps_and_uninstall_restores_every_boundary():
    from repro.healing.loop import SelfHealingLoop
    from repro.simulator.service import MultitierService

    before = (SelfHealingLoop.step_once, MultitierService.step)
    uninstall = spans.install(spans.SpanRecorder())
    assert SelfHealingLoop.step_once is not before[0]
    uninstall()
    assert (SelfHealingLoop.step_once, MultitierService.step) == before


# ----------------------------------------------------------------------
# Metric names.
# ----------------------------------------------------------------------


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    names = [name for name, _unit, _better in metrics.END_TO_END + metrics.PER_LAYER]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _u, _b in metrics.END_TO_END
    ]
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _u, _b in metrics.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


# ----------------------------------------------------------------------
# Output check.
# ----------------------------------------------------------------------


def _campaign() -> CampaignResult:
    reports = [
        EpisodeReport(
            event_id=i,
            fault_kinds=("hung_query",),
            fault_category="software",
            injected_at=100 * i,
            detected_at=100 * i + 3,
            recovered_at=100 * i + 40,
            outcomes=[True],
            successful_fix="kill_hung_query",
        )
        for i in range(3)
    ]
    return CampaignResult(reports=reports, injected=4, undetected=1, total_ticks=500)


def test_output_check_rejects_one_perturbed_detected_at():
    result = _campaign()
    reference = checks.fingerprint([result])
    assert checks.accounting_errors(result, expected_injected=4) == []
    result.reports[1].detected_at += 1
    assert checks.fingerprint([result]) != reference
    result.reports[1].detected_at = result.reports[1].injected_at - 1
    assert checks.accounting_errors(result)


def test_output_check_rejects_lost_episode():
    result = _campaign()
    result.reports.pop()
    assert checks.accounting_errors(result)


def test_fingerprint_canonicalizes_hung_transaction_ids():
    from repro.fixes.base import FixApplication

    first, second = _campaign(), _campaign()
    first.reports[0].applications.append(
        FixApplication("kill_hung_query", "hung-3", 1, "")
    )
    second.reports[0].applications.append(
        FixApplication("kill_hung_query", "hung-17", 1, "")
    )
    assert checks.fingerprint([first]) == checks.fingerprint([second])


# ----------------------------------------------------------------------
# Host-speed scaling.
# ----------------------------------------------------------------------


def test_scaled_rates_cancel_a_uniformly_slower_host():
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_SPEED
    assert hostspeed.scaled(3000.0, ref, ref) == pytest.approx(3000.0)
    assert hostspeed.scaled(2000.0, ref / 1.5, ref / 1.5) == pytest.approx(3000.0)
    # A unit is scaled by the mean of the gauges on either side of it.
    assert hostspeed.scaled(1000.0, ref, ref / 2) == pytest.approx(1000.0 / 0.75)
    assert hostspeed.scaled_seconds(3.0, [ref / 2, ref / 2]) == pytest.approx(1.5)


def test_gauge_reads_a_positive_speed():
    from perfbench import hostspeed

    assert hostspeed.gauge(0.01) > 0


# ----------------------------------------------------------------------
# The runner leaves no process behind.
# ----------------------------------------------------------------------


def test_stop_children_stops_and_reaps_the_resource_tracker():
    from multiprocessing import resource_tracker

    from perfbench import run

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped, so no longer a child


# ----------------------------------------------------------------------
# The seed reaches the program only as generated inputs.
# ----------------------------------------------------------------------

BENCH_SEED = 987_654_321


def _captured(monkeypatch, module: str, attr: str, result):
    import importlib

    calls = []

    def fake(*args, **kwargs):
        calls.append((args, kwargs))
        return result

    monkeypatch.setattr(importlib.import_module(module), attr, fake)
    return calls


def _values(args, kwargs):
    return [*args, *kwargs.values()]


def test_campaign_inputs_are_generated_from_the_seed(monkeypatch, tmp_path):
    workload = WORKLOADS["campaign"]
    spec = workload.unit_spec(BENCH_SEED, 0)
    assert spec == workload.unit_spec(BENCH_SEED, 0)
    assert spec != workload.unit_spec(BENCH_SEED + 1, 0)
    calls = _captured(
        monkeypatch,
        "repro.experiments.campaign",
        "run_campaign",
        CampaignResult(injected=len(spec["kinds"]), undetected=len(spec["kinds"])),
    )
    workload.run(spec, None, str(tmp_path))
    (args, kwargs), = calls
    assert BENCH_SEED not in _values(args, kwargs)
    assert kwargs["seed"] == spec["seed"]
    assert [fault.kind for fault in kwargs["faults"]] == spec["kinds"]


@pytest.mark.parametrize("name", ["fleet", "wide"])
def test_fleet_inputs_are_generated_from_the_seed(monkeypatch, tmp_path, name):
    from repro.fleet.campaign import FleetResult

    workload = WORKLOADS[name]
    spec = workload.unit_spec(BENCH_SEED, 2)
    calls = _captured(
        monkeypatch,
        "repro.fleet.campaign",
        "run_fleet_campaign",
        FleetResult(
            per_service=[CampaignResult()],
            schedule=[],
            n_services=1,
            episodes_per_service=0,
            seed=spec["seed"],
            workers=1,
            share_knowledge=True,
        ),
    )
    workload.run(spec, None, str(tmp_path))
    (args, kwargs), = calls
    assert BENCH_SEED not in _values(args, kwargs)
    assert kwargs["seed"] == spec["seed"]
    assert len(kwargs["schedule"]) == spec["episodes"]


def test_replay_records_and_replays_generated_inputs(monkeypatch, tmp_path):
    from repro.scenarios.runner import ScenarioRunResult

    workload = WORKLOADS["replay"]
    recorded = CampaignResult(injected=1, undetected=1, total_ticks=10)
    scenario_calls = _captured(
        monkeypatch,
        "repro.scenarios.runner",
        "run_scenario",
        ScenarioRunResult("black_friday", 0, "signature", recorded),
    )
    state = [workload.setup(BENCH_SEED, str(tmp_path), 0)]
    (args, kwargs), = scenario_calls
    assert BENCH_SEED not in _values(args, kwargs)
    assert kwargs["seed"] == workload.unit_spec(BENCH_SEED, 0)["seed"]

    open(state[0][0], "w").close()
    _captured(
        monkeypatch,
        "repro.scenarios.runner",
        "replay_campaign",
        ScenarioRunResult("black_friday", 0, "signature", recorded),
    )
    unit = workload.run(workload.unit_spec(BENCH_SEED, 0), state, str(tmp_path))
    assert unit.errors == []
