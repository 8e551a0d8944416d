"""Flight recorder: deterministic structured telemetry for the stack.

The paper's core empirical claim is about *where recovery time goes* —
TellMe "estimates that over 75% of the time they spend in recovering
from an application-level failure is spent detecting the failure"
(Section 4.1) — so the repro needs to account for every tick of an
episode, not just report coarse per-episode deltas.  This package is
the observability layer the whole stack emits into:

``repro.telemetry.hub``
    :class:`TelemetryHub`, the zero-overhead-when-disabled event
    buffer.  Events are plain dicts stamped with a per-source sequence
    number and *tick-clock* timestamps — never wall clock — so the
    JSONL event log for a seeded campaign is byte-identical run to
    run, for any worker count.

``repro.telemetry.healing``
    :class:`HealingTelemetry`, the :class:`SelfHealingLoop`
    instrument: every episode becomes a detection → identification →
    repair → verify span tree, every fix application emits an audit
    record (trigger reason, action taken, before/after metric
    snapshots, success flag), and a recurrence counter flags episodes
    whose fault signature repeats within a sliding window — healing
    without a recurrence-analysis trail just masks faults.

``repro.telemetry.metrics``
    Event-log aggregation into counters and histograms, rendered as a
    Prometheus text-format snapshot.

``repro.telemetry.report``
    The ``repro report`` renderer: per-episode phase timelines, the
    fix audit trail with success rates, and the fleet health summary.

Telemetry *observes and never mutates*: attaching it must leave every
campaign statistic, trace SHA-256, and corpus fingerprint byte-
identical (``tests/telemetry/test_equivalence.py`` enforces this), and
a loop without an instrument pays nothing but a ``None`` check per
episode.
"""

from repro.telemetry.healing import HealingTelemetry
from repro.telemetry.hub import (
    EVENTS_SCHEMA,
    TelemetryHub,
    dump_events,
    load_events,
)

__all__ = [
    "EVENTS_SCHEMA",
    "HealingTelemetry",
    "TelemetryHub",
    "dump_events",
    "load_events",
]
