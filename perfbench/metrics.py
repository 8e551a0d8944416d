"""Metric names, units, and how each is computed from unit results.

``END_TO_END`` are printed by untraced runs (``--trace 0``) and
``PER_LAYER`` by traced runs (``--trace 1``); ``BENCHMARK.json`` lists
the same names.  Every per-layer value is defined on every workload
(a layer a workload never enters reads zero).
"""

from __future__ import annotations

import json
import math

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "healing_quality",
    "layer_metrics",
    "verify_ticks_from_events",
]

# (name, unit, better)
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("ticks_per_s", "ticks/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("detection_ticks_mean", "ticks", "lower"),
    ("recovery_ticks_mean", "ticks", "lower"),
    ("auto_heal_rate", "ratio", "higher"),
    ("escalation_rate", "ratio", "lower"),
    ("undetected_ratio", "ratio", "lower"),
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("simulator.step.self_us_per_tick", "us", "lower"),
    ("simulator.workload.us_per_tick", "us", "lower"),
    ("simulator.web.us_per_tick", "us", "lower"),
    ("simulator.app.self_us_per_tick", "us", "lower"),
    ("simulator.ejb.us_per_tick", "us", "lower"),
    ("simulator.unavailable_tick_ratio", "ratio", "lower"),
    ("database.process_tick.us_per_tick", "us", "lower"),
    ("database.process_tick.queries_per_call", "count", "lower"),
    ("database.attribute.us_per_tick", "us", "lower"),
    ("monitoring.collect.us_per_tick", "us", "lower"),
    ("monitoring.append.us_per_tick", "us", "lower"),
    ("monitoring.fit_baseline.calls", "count", "lower"),
    ("monitoring.fit_baseline.us_per_call", "us", "lower"),
    ("monitoring.tracer.us_per_tick", "us", "lower"),
    ("monitoring.detector.us_per_tick", "us", "lower"),
    ("monitoring.failure_events", "count", "lower"),
    ("core.observe_tick.us_per_tick", "us", "lower"),
    ("core.recommend.calls", "count", "lower"),
    ("core.recommend.us_per_call", "us", "lower"),
    ("healing.step_once.self_us_per_tick", "us", "lower"),
    ("healing.harness.self_us_per_tick", "us", "lower"),
    ("healing.fix_attempts", "count", "lower"),
    ("healing.fix_success_ratio", "ratio", "higher"),
    ("healing.verify_ticks_mean", "ticks", "lower"),
    ("faults.on_tick.us_per_tick", "us", "lower"),
    ("faults.injected", "count", "higher"),
    ("fleet.knowledge.published_entries", "count", "higher"),
    ("fleet.knowledge.published_bytes", "bytes", "lower"),
    ("fleet.knowledge.absorbed_entries", "count", "higher"),
    ("fleet.knowledge.us_total", "us", "lower"),
    ("fleet.transport.barrier_wait_s", "s", "lower"),
    ("fleet.transport.dispatch_wait_s", "s", "lower"),
    ("fleet.transport.merge_s", "s", "lower"),
    ("fleet.watermark_lag_mean", "count", "lower"),
    ("scenarios.load_trace_s", "s", "lower"),
    ("scenarios.replay_step.us_per_tick", "us", "lower"),
    ("scenarios.trace_bytes", "bytes", "lower"),
    ("telemetry.us_per_tick", "us", "lower"),
    ("telemetry.dump_events_s", "s", "lower"),
    ("telemetry.events_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def healing_quality(campaigns) -> dict[str, float]:
    """Pooled healing statistics, in simulated ticks or ratios."""
    reports = [report for result in campaigns for report in result.reports]
    injected = sum(result.injected for result in campaigns)
    undetected = sum(result.undetected for result in campaigns)
    recovered = [r.recovery_ticks for r in reports if r.recovered_at is not None]
    detected = len(reports)
    return {
        "detection_ticks_mean": _mean(r.detection_ticks for r in reports),
        "recovery_ticks_mean": _mean(recovered),
        "auto_heal_rate": (
            sum(
                r.successful_fix is not None and not r.escalated
                for r in reports
            )
            / detected
            if detected
            else 0.0
        ),
        "escalation_rate": (
            sum(bool(r.escalated) for r in reports) / detected
            if detected
            else 0.0
        ),
        "undetected_ratio": undetected / injected if injected else 0.0,
    }


def verify_ticks_from_events(path: str) -> tuple[int, int]:
    """``(verify phases, their summed ticks)`` in one event log."""
    calls = ticks = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if '"verify"' not in line:
                continue
            event = json.loads(line)
            if event.get("type") == "phase" and event.get("phase") == "verify":
                calls += 1
                ticks += event["end"] - event["start"]
    return calls, ticks


def layer_metrics(
    table: dict,
    counts: dict,
    units: list,
    ticks: int,
    overhead_ratio: float,
    from_profile: bool,
    events_bytes: list[int],
    event_verify: tuple[int, int],
) -> dict[str, float]:
    """Per-layer metric values for one traced run.

    ``table`` maps boundary names to ``calls`` / ``total_s`` /
    ``self_s`` (from spans, or from worker profiles when
    ``from_profile``), ``counts`` holds the span observers' counters,
    ``units`` the traced :class:`UnitResult` objects and ``ticks``
    their simulated ticks.
    """

    def row(name):
        return table.get(name) or {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def per_tick(name, key="total_s"):
        return row(name)[key] / ticks * 1e6 if ticks else 0.0

    def seconds_per_call(name):
        r = row(name)
        return r["total_s"] / r["calls"] if r["calls"] else 0.0

    campaigns = [c for unit in units for c in unit.campaigns]
    applications = sum(len(r.applications) for c in campaigns for r in c.reports)
    successes = sum(sum(map(bool, r.outcomes)) for c in campaigns for r in c.reports)
    transports = [unit.transport for unit in units if unit.transport]
    trace_bytes = [unit.extra["trace_bytes"] for unit in units
                   if unit.extra and "trace_bytes" in unit.extra]

    steps = row("simulator.step")["calls"]
    if from_profile:
        unavailable = steps - row("simulator.web")["calls"]
        failure_events = row("monitoring.failure_events")["calls"]
        queries_per_call = 0.0  # argument values are not in a profile
        verify_calls, verify_ticks = event_verify
        telemetry_us = per_tick("telemetry.healing")
    else:
        unavailable = counts.get("simulator.unavailable", 0)
        failure_events = counts.get("monitoring.failure_events", 0)
        process_calls = row("database.process_tick")["calls"]
        queries_per_call = (
            counts.get("database.queries", 0) / process_calls
            if process_calls
            else 0.0
        )
        verify_calls = counts.get("healing.verify_calls", 0)
        verify_ticks = counts.get("healing.verify_ticks", 0)
        telemetry_us = 0.0

    def transport_sum(key):
        total = 0.0
        for transport in transports:
            value = transport[key]
            if isinstance(value, list):
                value = sum(sum(v) if isinstance(v, list) else v for v in value)
            total += value
        return total

    values = {
        "simulator.step.self_us_per_tick": per_tick("simulator.step", "self_s"),
        "simulator.workload.us_per_tick": per_tick("simulator.workload"),
        "simulator.web.us_per_tick": per_tick("simulator.web"),
        "simulator.app.self_us_per_tick": per_tick("simulator.app", "self_s"),
        "simulator.ejb.us_per_tick": per_tick("simulator.ejb"),
        "simulator.unavailable_tick_ratio": unavailable / steps if steps else 0.0,
        "database.process_tick.us_per_tick": per_tick("database.process_tick"),
        "database.process_tick.queries_per_call": queries_per_call,
        "database.attribute.us_per_tick": per_tick("database.attribute"),
        "monitoring.collect.us_per_tick": per_tick("monitoring.collect"),
        "monitoring.append.us_per_tick": per_tick("monitoring.append"),
        "monitoring.fit_baseline.calls": row("monitoring.fit_baseline")["calls"],
        "monitoring.fit_baseline.us_per_call": seconds_per_call(
            "monitoring.fit_baseline"
        )
        * 1e6,
        "monitoring.tracer.us_per_tick": per_tick("monitoring.tracer"),
        "monitoring.detector.us_per_tick": per_tick("monitoring.detector"),
        "monitoring.failure_events": failure_events,
        "core.observe_tick.us_per_tick": per_tick("core.observe_tick"),
        "core.recommend.calls": row("core.recommend")["calls"],
        "core.recommend.us_per_call": seconds_per_call("core.recommend") * 1e6,
        "healing.step_once.self_us_per_tick": per_tick("healing.step_once", "self_s"),
        "healing.harness.self_us_per_tick": per_tick("healing.harness", "self_s"),
        "healing.fix_attempts": applications,
        "healing.fix_success_ratio": successes / applications if applications else 0.0,
        "healing.verify_ticks_mean": (
            verify_ticks / verify_calls if verify_calls else 0.0
        ),
        "faults.on_tick.us_per_tick": per_tick("faults.on_tick"),
        "faults.injected": sum(c.injected for c in campaigns),
        "fleet.knowledge.published_entries": sum(
            t["knowledge"]["published_entries"] for t in transports
        ),
        "fleet.knowledge.published_bytes": sum(
            t["knowledge"]["published_bytes"] for t in transports
        ),
        "fleet.knowledge.absorbed_entries": sum(
            t["knowledge"]["absorbed_entries"] for t in transports
        ),
        "fleet.knowledge.us_total": row("fleet.knowledge")["total_s"] * 1e6,
        "fleet.transport.barrier_wait_s": transport_sum("barrier_wait_s"),
        "fleet.transport.dispatch_wait_s": transport_sum("dispatch_wait_s"),
        "fleet.transport.merge_s": transport_sum("merge_s"),
        "fleet.watermark_lag_mean": _mean(
            t["watermark_lag"]["mean"] for t in transports
        ),
        "scenarios.load_trace_s": seconds_per_call("scenarios.load_trace"),
        "scenarios.replay_step.us_per_tick": per_tick("scenarios.replay_step"),
        "scenarios.trace_bytes": _mean(trace_bytes),
        "telemetry.us_per_tick": telemetry_us,
        "telemetry.dump_events_s": seconds_per_call("telemetry.dump_events"),
        "telemetry.events_bytes": _mean(events_bytes),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, value in values.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"metric {name} is not finite: {value!r}")
    return values
