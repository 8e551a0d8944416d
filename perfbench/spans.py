"""Outside-in tracing: spans around the program's public layer boundaries.

Nothing here edits ``src/``.  :func:`install` replaces each boundary
method on its class (or module) with a wrapper that records a span —
name, start, end, parent, and the tick it belongs to — into a
:class:`SpanRecorder`, and the returned ``uninstall`` callable puts the
originals back.  Spans stay in memory until :meth:`SpanRecorder.save`.

Worker processes of the sharded fleet runner cannot be wrapped from
here, so :func:`profile_layers` maps the cProfile dumps the runner's
``profile_dir`` argument writes onto the same layer names.  Those
numbers come from a different overhead regime (cProfile times every
call, not only boundary calls) and are labelled as such by the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pstats
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BOUNDARIES",
    "Boundary",
    "SpanRecorder",
    "install",
    "profile_layers",
    "self_times",
    "summarize",
]


# Observers: counters read from a boundary call's result.


def _count_unavailable(recorder, result) -> None:
    if not result.available:
        recorder.counts["simulator.unavailable"] += 1


def _count_queries(recorder, result) -> None:
    recorder.counts["database.queries"] += result.total_queries


def _count_failure_events(recorder, result) -> None:
    if result is not None:
        recorder.counts["monitoring.failure_events"] += 1


def _record_verify(recorder, result) -> None:
    _fixed, used = result
    recorder.counts["healing.verify_calls"] += 1
    recorder.counts["healing.verify_ticks"] += used


@dataclass(frozen=True)
class Boundary:
    """One public call boundary of a layer.

    Attributes:
        name: span name (``<layer>.<boundary>``).
        targets: ``"module:Class.method"`` or ``"module:function"``
            strings; ``"module:Class.method+"`` also wraps every
            subclass that defines its own ``method``.
        parent: the boundary this one always runs inside, used to
            derive self time from profile dumps (span traces derive
            self time from the recorded parent instead).
        root: a call opens a new tick (one span id per tick per member).
        generator: the target is a generator function; the wrapper
            records its return value but no span.
        observe: called with the recorder and each call's result.
    """

    name: str
    targets: tuple[str, ...]
    parent: str | None = None
    root: bool = False
    generator: bool = False
    observe: Callable | None = None


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(
        "healing.step_once",
        ("repro.healing.loop:SelfHealingLoop.step_once",),
        root=True,
    ),
    Boundary(
        "simulator.step",
        ("repro.simulator.service:MultitierService.step",),
        parent="healing.step_once",
        observe=_count_unavailable,
    ),
    Boundary(
        "simulator.workload",
        ("repro.simulator.workload:Workload.requests_at",),
        parent="simulator.step",
    ),
    Boundary(
        "simulator.web",
        ("repro.simulator.tiers.web:WebTier.process",),
        parent="simulator.step",
    ),
    Boundary(
        "simulator.app",
        ("repro.simulator.tiers.app:AppTier.process",),
        parent="simulator.step",
    ),
    Boundary(
        "simulator.ejb",
        ("repro.simulator.ejb:EJBContainer.process",),
        parent="simulator.app",
    ),
    Boundary(
        "database.process_tick",
        ("repro.database.engine:DatabaseEngine.process_tick",),
        parent="simulator.step",
        observe=_count_queries,
    ),
    Boundary(
        "database.attribute",
        ("repro.simulator.tiers.db:DatabaseTier.attribute",),
        parent="simulator.step",
    ),
    Boundary(
        "scenarios.replay_step",
        ("repro.scenarios.trace:ReplayService.step",),
        parent="healing.step_once",
    ),
    Boundary(
        "faults.on_tick",
        (
            "repro.faults.injector:FaultInjector.on_tick",
            "repro.scenarios.trace:ReplayInjector.on_tick",
        ),
        parent="healing.step_once",
    ),
    Boundary("faults.inject", ("repro.faults.injector:FaultInjector.inject",)),
    Boundary(
        "healing.harness",
        ("repro.healing.loop:HealingHarness.observe",),
        parent="healing.step_once",
    ),
    Boundary(
        "monitoring.collect",
        ("repro.monitoring.collectors:MetricCollector.collect",),
        parent="healing.harness",
    ),
    Boundary(
        "monitoring.append",
        ("repro.monitoring.timeseries:MetricStore.append",),
        parent="healing.harness",
    ),
    Boundary(
        "monitoring.fit_baseline",
        ("repro.monitoring.baseline:BaselineModel.fit_baseline",),
        parent="healing.harness",
    ),
    Boundary(
        "monitoring.tracer",
        ("repro.monitoring.tracing:CallMatrixTracer.observe",),
        parent="healing.harness",
    ),
    Boundary(
        "monitoring.detector",
        ("repro.monitoring.detector:FailureDetector.observe",),
        parent="healing.harness",
        observe=_count_failure_events,
    ),
    Boundary(
        "core.observe_tick",
        (
            "repro.core.approaches.signature:SignatureApproach.observe_tick",
            "repro.fleet.knowledge:KnowledgeSharingApproach.observe_tick",
        ),
        parent="healing.step_once",
    ),
    Boundary(
        "core.recommend",
        (
            "repro.core.approaches.signature:SignatureApproach.recommend",
            "repro.fleet.knowledge:KnowledgeSharingApproach.recommend",
        ),
    ),
    Boundary(
        "core.observe_outcome",
        (
            "repro.core.approaches.signature:SignatureApproach.observe_outcome",
            "repro.fleet.knowledge:KnowledgeSharingApproach.observe_outcome",
        ),
    ),
    Boundary("healing.fix_apply", ("repro.fixes.base:Fix.apply+",)),
    Boundary(
        "healing.verify",
        ("repro.healing.loop:SelfHealingLoop._verify_gen",),
        generator=True,
        observe=_record_verify,
    ),
    Boundary(
        "fleet.knowledge",
        (
            "repro.fleet.knowledge:SharedKnowledgeBase.contribute",
            "repro.fleet.knowledge:SharedKnowledgeBase.updates_window",
            "repro.fleet.knowledge:KnowledgeSharingApproach.absorb",
        ),
    ),
    Boundary("scenarios.load_trace", ("repro.scenarios.runner:load_trace",)),
    Boundary("telemetry.dump_events", ("repro.telemetry:dump_events",)),
)

# Boundaries of the fleet coordinator process: the only ones wrapped
# when the member-side layers run in worker processes.
COORDINATOR_BOUNDARIES = frozenset({"fleet.knowledge", "telemetry.dump_events"})


class SpanRecorder:
    """In-memory span store: parallel lists, one entry per call.

    ``parent`` is the index of the enclosing open span (-1 for a root)
    and ``tick`` the id of the tick the span belongs to: every
    ``root`` boundary call opens a new tick id, so each simulated tick
    of each member gets its own id and the calls made between ticks
    (fix application, recommendation) carry the id of the tick before.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tick: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._tick_id = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, root: bool = False) -> int:
        if root:
            self._tick_id += 1
        index = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.tick.append(self._tick_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> int:
        """Name id of the innermost open span (-1 when none is open)."""
        return self.name[self._stack[-1]] if self._stack else -1

    def save(self, path: str) -> None:
        """Write every span as one JSON document (names + columns)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "tick": self.tick,
                    "counts": dict(self.counts),
                },
                handle,
                separators=(",", ":"),
            )


def _span_wrapper(recorder: SpanRecorder, boundary: Boundary, fn):
    nid = recorder.name_id(boundary.name)
    root = boundary.root
    observe = boundary.observe

    if boundary.generator:

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            result = yield from fn(*args, **kwargs)
            observe(recorder, result)
            return result

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # A delegating boundary (the knowledge-sharing approach calling
        # its inner approach) is one span, not two nested copies.
        if recorder.innermost() == nid:
            return fn(*args, **kwargs)
        index = recorder.begin(nid, root)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if observe is not None:
            observe(recorder, result)
        return result

    return wrapper


def _resolve(target: str) -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs a target string names."""
    module_name, path = target.split(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    class_name, method = path.split(".")
    include_subclasses = method.endswith("+")
    method = method.rstrip("+")
    cls = getattr(module, class_name)
    owners = [cls]
    if include_subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            pending.extend(sub.__subclasses__())
            if method in sub.__dict__:
                owners.append(sub)
    return [(owner, method) for owner in owners]


def install(recorder: SpanRecorder, names=None):
    """Wrap the named boundaries (all by default); return ``uninstall``."""
    undo: list[tuple[object, str, object, bool]] = []
    for boundary in BOUNDARIES:
        if names is not None and boundary.name not in names:
            continue
        for target in boundary.targets:
            for owner, attr in _resolve(target):
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, _span_wrapper(recorder, boundary, original))
                undo.append((owner, attr, original, own))

    def uninstall() -> None:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        undo.clear()

    return uninstall


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    result = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        intervals = sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[up] -= covered
    return result


def summarize(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds, self seconds."""
    own = self_times(recorder.start, recorder.end, recorder.parent)
    table: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for name in recorder.names
    }
    for nid, s, e, self_s in zip(
        recorder.name, recorder.start, recorder.end, own
    ):
        row = table[recorder.names[nid]]
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += self_s
    return table


# Profile-only pseudo boundaries: whole source files whose entry time
# (calls made from outside the file) is one layer's cost, plus single
# functions whose call count stands in for a value the span observers
# read from results.
_PROFILE_FILES = {"telemetry.healing": "repro/telemetry/healing.py"}
_PROFILE_COUNTERS = {
    "monitoring.failure_events": (
        "repro.monitoring.detector:FailureDetector._build_event"
    ),
}


def _code_keys(targets) -> set[tuple[str, int, str]]:
    keys = set()
    for target in targets:
        for owner, attr in _resolve(target):
            fn = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
            code = getattr(fn, "__wrapped__", fn).__code__
            keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def profile_layers(paths: list[str]) -> dict[str, dict[str, float]]:
    """Map cProfile dumps onto the boundary names.

    Returns, per boundary, ``calls`` and ``total_s`` (time spent inside
    calls entered from outside the boundary's own functions, so a
    delegating boundary is not counted twice) and ``self_s``
    (``total_s`` minus that of the boundaries whose ``parent`` it is).
    Pseudo boundaries from ``_PROFILE_FILES`` / ``_PROFILE_COUNTERS``
    are included under their own names.
    """
    stats = None
    for path in paths:
        if stats is None:
            stats = pstats.Stats(path)
        else:
            stats.add(path)
    raw = stats.stats if stats is not None else {}

    def entered(keys) -> tuple[int, float]:
        calls = 0
        seconds = 0.0
        for key in keys:
            entry = raw.get(key)
            if entry is None:
                continue
            for caller, (nc, _cc, _tt, ct) in entry[4].items():
                if caller not in keys:
                    calls += nc
                    seconds += ct
        return calls, seconds

    table: dict[str, dict[str, float]] = {}
    for boundary in BOUNDARIES:
        if boundary.generator:
            continue
        calls, seconds = entered(_code_keys(boundary.targets))
        table[boundary.name] = {
            "calls": calls,
            "total_s": seconds,
            "self_s": seconds,
        }
    for boundary in BOUNDARIES:
        if boundary.parent is not None and boundary.parent in table:
            table[boundary.parent]["self_s"] -= table[boundary.name]["total_s"]
    for name, suffix in _PROFILE_FILES.items():
        suffix = suffix.replace("/", os.sep)
        keys = {key for key in raw if key[0].endswith(suffix)}
        calls, seconds = entered(keys)
        table[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
    for name, target in _PROFILE_COUNTERS.items():
        calls, seconds = entered(_code_keys((target,)))
        table[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
    return table
