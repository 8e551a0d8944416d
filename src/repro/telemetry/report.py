"""Offline renderer behind ``repro report``.

Takes a recorded event log and answers the two questions the paper
cares about: *where did each episode's recovery time go* (the 75%-in-
detection claim needs a per-phase timeline, not a single delta) and
*is the healing loop actually healing* (fix success rates, escalation
and recurrence counts, fleet knowledge-sharing health).

Rendering is plain ASCII and fully deterministic: episodes appear in
stream order (coordinator first, then members by index — the same
canonical order the JSONL was written in), and every number is a tick
or a count.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["format_report"]

# Width of the proportional phase bars in the timeline.
_BAR = 24

_PHASE_ORDER = {"detection": 0, "repair": 1, "verify": 2, "admin_wait": 3}


def _bar(ticks: int, total: int) -> str:
    if total <= 0:
        return " " * _BAR
    filled = max(1 if ticks > 0 else 0, round(_BAR * ticks / total))
    return ("#" * min(filled, _BAR)).ljust(_BAR)


def _phase_label(event: dict) -> str:
    phase = event.get("phase", "?")
    if phase == "repair":
        target = event.get("target")
        fix = event.get("fix", "?")
        where = f"({target})" if target else ""
        return f"repair #{event.get('attempt', '?')} {fix}{where}"
    if phase == "verify":
        mark = "ok" if event.get("success") else "FAIL"
        return f"verify #{event.get('attempt', '?')} -> {mark}"
    return phase


def _episode_lines(member: int | None, episode: int, events: list[dict]) -> list[str]:
    start = next((e for e in events if e["type"] == "episode_start"), None)
    end = next((e for e in events if e["type"] == "episode_end"), None)
    phases = [e for e in events if e["type"] == "phase"]
    audits = [e for e in events if e["type"] == "audit"]

    who = f"member {member} " if member is not None else ""
    faults = ",".join(start.get("fault_kinds", [])) if start else "?"
    lines = []
    if end is not None:
        report = end.get("report") or {}
        if end.get("recovered"):
            via = report.get("successful_fix") or (
                "administrator" if end.get("admin_resolved") else "?"
            )
            outcome = f"recovered via {via}"
        else:
            outcome = "NOT RECOVERED"
        span = (
            f"ticks {report.get('injected_at', '?')}"
            f"..{report.get('recovered_at', end.get('tick', '?'))}"
        )
        flags = []
        if end.get("escalated"):
            flags.append("escalated")
        if end.get("recurrence_flagged"):
            flags.append(
                f"RECURRING x{end.get('recurrence_count')}"
                f" [{end.get('signature')}]"
            )
        suffix = f"  ({'; '.join(flags)})" if flags else ""
        lines.append(
            f"{who}episode {episode}  [{faults}]  {span}  {outcome}{suffix}"
        )
    else:
        lines.append(f"{who}episode {episode}  [{faults}]  (incomplete)")

    total = sum(
        max(0, e.get("end", 0) - e.get("start", 0))
        for e in phases
        if e.get("start") is not None and e.get("end") is not None
    )
    for event in phases:
        s, t = event.get("start"), event.get("end")
        if s is None or t is None:
            continue
        ticks = max(0, t - s)
        lines.append(
            f"  {_phase_label(event):<34} {_bar(ticks, total)}"
            f" {ticks:>5} ticks  [{s}..{t}]"
        )
    for event in audits:
        before, after = event.get("before_state") or {}, event.get("after_state") or {}
        deltas = ", ".join(
            f"{name}: {before[name]:.3g}->{after[name]:.3g}"
            for name in before
            if name in after
        )
        mark = "ok" if event.get("success") else "FAIL"
        lines.append(
            f"    audit #{event.get('attempt', '?')}"
            f" [{event.get('stage')}] {event.get('trigger_reason')}"
            f" => {event.get('action_taken')} ({mark})"
        )
        if deltas:
            lines.append(f"      {deltas}")
    return lines


def _fleet_lines(events: list[dict]) -> list[str]:
    rounds = [e for e in events if e.get("type") == "fleet_round"]
    end = next((e for e in events if e.get("type") == "fleet_end"), None)
    if not rounds and end is None:
        return []
    lines = ["", "fleet health", "-" * 12]
    published = sum(int(e.get("published", 0)) for e in rounds)
    absorbed = sum(int(e.get("absorbed", 0)) for e in rounds)
    downtimes = [
        sum(e["downtime"]) / len(e["downtime"])
        for e in rounds
        if e.get("downtime")
    ]
    lags = [int(e.get("lag", 0)) for e in rounds]
    lines.append(f"  rounds                 {len(rounds)}")
    lines.append(f"  entries published      {published}")
    lines.append(f"  entries absorbed       {absorbed}")
    if downtimes:
        lines.append(
            f"  downtime fraction      mean {sum(downtimes) / len(downtimes):.3f}"
            f", worst round {max(downtimes):.3f}"
        )
    if lags:
        lines.append(
            f"  watermark lag          max {max(lags)}, "
            f"mean {sum(lags) / len(lags):.2f} entries/round"
        )
    if end is not None:
        lines.append(
            f"  knowledge log          {end.get('entries', '?')} entries"
            f" ({end.get('bytes', '?')} bytes)"
        )
    return lines


def _summary_lines(events: list[dict]) -> list[str]:
    ends = [e for e in events if e.get("type") == "episode_end"]
    audits = [e for e in events if e.get("type") == "audit"]
    undetected = [e for e in events if e.get("type") == "undetected"]
    if not ends and not audits and not undetected:
        return []
    lines = ["", "summary", "-" * 7]
    recovered = sum(1 for e in ends if e.get("recovered"))
    lines.append(
        f"  episodes               {len(ends)}"
        f" ({recovered} recovered,"
        f" {sum(1 for e in ends if e.get('escalated'))} escalated,"
        f" {sum(1 for e in ends if e.get('admin_resolved'))} admin)"
    )
    flagged = [e for e in ends if e.get("recurrence_flagged")]
    if flagged:
        sigs = sorted({str(e.get("signature")) for e in flagged})
        lines.append(
            f"  recurrence flags       {len(flagged)}  ({', '.join(sigs)})"
        )
    if undetected:
        lines.append(f"  undetected faults      {len(undetected)}")
    by_fix: dict[str, list[bool]] = defaultdict(list)
    for event in audits:
        by_fix[str(event.get("action_taken"))].append(bool(event.get("success")))
    for fix in sorted(by_fix):
        outcomes = by_fix[fix]
        wins = sum(outcomes)
        lines.append(
            f"  fix {fix:<18} {wins}/{len(outcomes)} succeeded"
        )
    return lines


def format_report(header: dict, events: list[dict]) -> str:
    """Render the full report for one recorded event log."""
    meta = ", ".join(
        f"{key}={header[key]}"
        for key in sorted(header)
        if key not in ("type", "schema")
    )
    title = f"flight recording ({header.get('schema', '?')})"
    lines = [title, "=" * len(title)]
    if meta:
        lines.append(meta)
    lines.append("")

    grouped: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for event in events:
        if event.get("type") not in (
            "episode_start",
            "phase",
            "audit",
            "episode_end",
        ):
            continue
        key = (event.get("m"), event.get("episode"))
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(event)
    if order:
        for key in order:
            member, episode = key
            lines.extend(_episode_lines(member, episode, grouped[key]))
            lines.append("")
        lines.pop()
    else:
        lines.append("no healing episodes recorded")

    lines.extend(_summary_lines(events))
    lines.extend(_fleet_lines(events))
    return "\n".join(lines) + "\n"
