"""Event-log aggregation into Prometheus-style counters and histograms.

One code path serves both the live hub and the offline CLI: counters
and histograms are always derived *from the event log*, never kept as
separate mutable state, so a snapshot rendered during a run and one
rendered later from the JSONL file can never disagree.

Everything here is tick-based and deterministic — histogram buckets
are fixed, label sets are sorted, and the rendered text is a pure
function of the event list.  Wall-clock transport timings deliberately
never enter this surface (they live in BENCH_perf.json).
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["PHASE_BUCKETS", "aggregate_events", "render_prometheus"]

# Tick-duration buckets shared by every histogram.  Wide enough for
# admin-path episodes (hundreds of ticks), fine enough to separate a
# microreboot from a full restart.
PHASE_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

_HELP = {
    "repro_episodes_total": "Healing episodes completed, by outcome.",
    "repro_escalations_total": "Episodes that took the Figure-3 THRESHOLD escalation path.",
    "repro_admin_resolved_total": "Episodes a human administrator had to finish.",
    "repro_recurrence_flags_total": "Episodes whose fault signature recurred within the sliding window.",
    "repro_fix_applications_total": "Fix applications attempted, by fix kind, stage, and verified outcome.",
    "repro_undetected_faults_total": "Faults cleared without ever tripping the detector.",
    "repro_fleet_rounds_total": "Fleet knowledge-sharing rounds executed.",
    "repro_knowledge_published_total": "Knowledge-log entries published by members.",
    "repro_knowledge_absorbed_total": "Knowledge-log entries absorbed into member synopses.",
    "repro_fleet_downtime_fraction_sum": "Sum of per-service downtime fractions over fleet rounds.",
    "repro_phase_ticks": "Episode phase durations, in simulation ticks.",
    "repro_recovery_ticks": "End-to-end recovery time (injection to verified healthy), in ticks.",
    "repro_knowledge_lag_entries": "Per-round knowledge watermark lag (entries published after the dispatched watermark).",
}


class _Hist:
    __slots__ = ("counts", "total", "count")

    def __init__(self) -> None:
        self.counts = [0] * (len(PHASE_BUCKETS) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(PHASE_BUCKETS):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1


def _labels(**kv) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in kv.items()))


def aggregate_events(events: list[dict]) -> dict:
    """Fold an event list into ``{"counters": ..., "histograms": ...}``.

    Counters map ``(name, labels)`` to an int; histograms map
    ``(name, labels)`` to a ``_Hist``.  Unknown event types are
    ignored, so older readers survive newer logs within the same
    schema family.
    """
    counters: dict[tuple, int] = defaultdict(int)
    hists: dict[tuple, _Hist] = defaultdict(_Hist)

    def observe(name: str, labels: tuple, value) -> None:
        if value is not None and value >= 0:
            hists[(name, labels)].observe(value)

    for event in events:
        etype = event.get("type")
        if etype == "episode_end":
            recovered = bool(event.get("recovered"))
            counters[("repro_episodes_total", _labels(recovered=str(recovered).lower()))] += 1
            if event.get("escalated"):
                counters[("repro_escalations_total", ())] += 1
            if event.get("admin_resolved"):
                counters[("repro_admin_resolved_total", ())] += 1
            if event.get("recurrence_flagged"):
                counters[("repro_recurrence_flags_total", ())] += 1
            report = event.get("report") or {}
            if recovered and report.get("recovered_at") is not None:
                observe(
                    "repro_recovery_ticks",
                    (),
                    report["recovered_at"] - report["injected_at"],
                )
        elif etype == "phase":
            start, end = event.get("start"), event.get("end")
            if start is not None and end is not None:
                observe(
                    "repro_phase_ticks",
                    _labels(phase=event.get("phase", "unknown")),
                    end - start,
                )
        elif etype == "audit":
            counters[(
                "repro_fix_applications_total",
                _labels(
                    fix=event.get("action_taken", "unknown"),
                    stage=event.get("stage", "fix"),
                    success=str(bool(event.get("success"))).lower(),
                ),
            )] += 1
        elif etype == "undetected":
            counters[(
                "repro_undetected_faults_total",
                _labels(fault=event.get("fault_kind", "unknown")),
            )] += 1
        elif etype == "fleet_round":
            counters[("repro_fleet_rounds_total", ())] += 1
            counters[("repro_knowledge_published_total", ())] += int(
                event.get("published", 0)
            )
            counters[("repro_knowledge_absorbed_total", ())] += int(
                event.get("absorbed", 0)
            )
            downtime = event.get("downtime") or []
            if downtime:
                counters[("repro_fleet_downtime_fraction_sum", ())] += float(
                    sum(downtime)
                )
            observe("repro_knowledge_lag_entries", (), event.get("lag"))
    return {"counters": dict(counters), "histograms": dict(hists)}


def _fmt(value) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _label_str(labels: tuple, extra: tuple = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(aggregate: dict) -> str:
    """Render an :func:`aggregate_events` result as Prometheus text.

    Output is fully sorted (metric name, then label string) so the
    snapshot for a seeded campaign is byte-stable.
    """
    lines: list[str] = []
    counters = aggregate.get("counters", {})
    hists = aggregate.get("histograms", {})
    names = sorted(
        {name for name, _ in counters} | {name for name, _ in hists}
    )
    for name in names:
        lines.append(f"# HELP {name} {_HELP.get(name, name)}")
        is_hist = any(n == name for n, _ in hists)
        lines.append(f"# TYPE {name} {'histogram' if is_hist else 'counter'}")
        for (cname, labels), value in sorted(
            (item for item in counters.items() if item[0][0] == name),
            key=lambda item: item[0][1],
        ):
            lines.append(f"{cname}{_label_str(labels)} {_fmt(value)}")
        for (hname, labels), hist in sorted(
            (item for item in hists.items() if item[0][0] == name),
            key=lambda item: item[0][1],
        ):
            cumulative = 0
            for bound, count in zip(PHASE_BUCKETS, hist.counts):
                cumulative += count
                lines.append(
                    f"{hname}_bucket"
                    f"{_label_str(labels, (('le', _fmt(bound)),))}"
                    f" {cumulative}"
                )
            cumulative += hist.counts[-1]
            lines.append(
                f"{hname}_bucket{_label_str(labels, (('le', '+Inf'),))}"
                f" {cumulative}"
            )
            lines.append(f"{hname}_sum{_label_str(labels)} {_fmt(hist.total)}")
            lines.append(f"{hname}_count{_label_str(labels)} {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""
