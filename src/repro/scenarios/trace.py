"""Telemetry trace record/replay.

Recording captures everything a campaign's healing loop can observe —
every :class:`TickSnapshot`, every fault lifecycle event (ground-truth
annotations), every applied fix, and (for fleets) every knowledge
absorption — into a compact, deterministic JSONL trace.  Replay
reconstructs the tick stream and drives a *fresh* healing loop over
it: the same approach reproduces the recorded campaign statistics
exactly (the round-trip equality the tests pin down), and a different
approach can be compared open-loop on byte-identical telemetry.

Design notes:

* Traces carry no wall-clock timestamps and every float is serialized
  by ``repr`` (exact IEEE-754 round-trip), so the same ``(scenario,
  seed)`` always yields the same trace bytes — the determinism the
  scenario tests hash.
* The writer is ``json.dumps`` and the reader is ``orjson``, which
  reads ``repr`` floats back bit for bit at about a third of the cost.
  Two inputs would not survive that pair, so neither reaches a trace:
  the writer refuses NaN and infinities (orjson rejects them), and
  the reader refuses header seeds and thresholds that did not decode
  to integers (orjson reads integers outside ``[-2**63, 2**64)`` as
  floats).
* A trace streams through both ends one line at a time.  The
  recorder writes and hashes its buffered lines one by one at close;
  the loader keeps each tick record as its raw line, and
  :meth:`ReplayService.step` decodes a record only when the replay
  reaches it, so a malformed tick raises ``ValueError`` at that tick.
* Replay is *open-loop*: fix applications are no-ops because their
  effects are already baked into the recorded telemetry.  A
  :class:`ReplayService` stands in for the simulator, and a
  :class:`ReplayInjector` re-enacts the recorded fault lifecycle so
  episode reports get identical ground-truth annotations.
* Line types: ``header``, ``tick``, ``inject``, ``clear``, ``fix``,
  ``absorb`` (fleet knowledge exchange), and ``summary``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np
import orjson

from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.fixes.base import FixApplication
from repro.simulator.service import MultitierService, TickSnapshot

__all__ = [
    "RecordingInjector",
    "ReplayFault",
    "ReplayInjector",
    "ReplayService",
    "TraceExhausted",
    "TraceRecorder",
    "load_trace",
    "tick_payload",
    "trace_sha256",
]

TRACE_VERSION = 1

_SNAPSHOT_FIELDS = [f.name for f in dataclasses.fields(TickSnapshot)]
# Constant across a run; hoisted into the header to keep ticks compact.
_HOISTED = ("caller_names", "callee_names")
# Every snapshot field in constructor order, holding what a field
# absent from a trace payload takes: its plain default, or _NO_DEFAULT
# when it is required or has a default_factory.
_NO_DEFAULT = object()
_TEMPLATE = {
    f.name: _NO_DEFAULT if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(TickSnapshot)
}
_NO_DEFAULT_FIELDS = [
    f
    for f in dataclasses.fields(TickSnapshot)
    if f.default is dataclasses.MISSING
]
# The writer's tick record, keys sorted:
# {"member":<int>,"s":{...snapshot...},"type":"tick"}
_TICK_HEAD = b'{"member":'
_TICK_SNAPSHOT = b',"s":'
_TICK_TAILS = (b',"type":"tick"}\n', b',"type":"tick"}')
# Block size of the trace writer's file buffer and of trace hashing.
_IO_BLOCK = 1 << 20


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _dumps(payload: dict) -> str:
    return json.dumps(
        payload,
        separators=(",", ":"),
        sort_keys=True,
        allow_nan=False,
        default=_json_default,
    )


class TraceExhausted(Exception):
    """Raised when replay steps past the end of the recorded trace."""


def snapshot_to_payload(snapshot: TickSnapshot) -> dict:
    """Serialize one snapshot (minus the hoisted constant fields)."""
    payload = {}
    for name in _SNAPSHOT_FIELDS:
        if name in _HOISTED:
            continue
        payload[name] = getattr(snapshot, name)
    return payload


def snapshot_from_payload(
    payload: dict, caller_names: list[str], callee_names: list[str]
) -> TickSnapshot:
    """Rebuild a snapshot from its trace payload.

    The payload is merged over the field template and passed
    positionally: a keyword call matching ~40 keys that orjson did not
    intern costs about five times as much.  A field the payload lacks
    takes its default, and an unknown key or a missing required field
    raises, as with the keyword call.
    """
    fields = _TEMPLATE | payload
    if len(fields) != len(_TEMPLATE):
        unknown = sorted(set(payload).difference(_TEMPLATE))
        raise TypeError(f"snapshot payload has unknown fields {unknown}")
    matrix = fields["call_matrix"]
    if matrix is not None:
        fields["call_matrix"] = np.asarray(matrix, dtype=float)
        fields["caller_names"] = list(caller_names)
        fields["callee_names"] = list(callee_names)
    for field in _NO_DEFAULT_FIELDS:
        if fields[field.name] is not _NO_DEFAULT:
            continue
        if field.default_factory is dataclasses.MISSING:
            raise TypeError(
                f"snapshot payload lacks required field {field.name!r}"
            )
        fields[field.name] = field.default_factory()
    return TickSnapshot(*fields.values())


class TraceRecorder:
    """Buffers one campaign's trace and writes it on close.

    Lines are buffered in memory (traces are megabytes, not gigabytes)
    so the header — which needs facts only known after construction,
    like fleet member seeds — can still be written first.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._header: dict | None = None
        self._lines: list[str] = []
        self._caller_names: list[str] | None = None
        self._callee_names: list[str] | None = None
        self._closed = False

    # -- writers -------------------------------------------------------

    def set_header(self, **fields) -> None:
        """Set (or update) the header written as the first line."""
        if self._header is None:
            self._header = {"type": "header", "version": TRACE_VERSION}
        self._header.update(fields)

    def tick(self, member: int, snapshot: TickSnapshot) -> None:
        if snapshot.call_matrix is not None and self._caller_names is None:
            self._caller_names = list(snapshot.caller_names)
            self._callee_names = list(snapshot.callee_names)
        payload = snapshot_to_payload(snapshot)
        self._lines.append(
            _dumps({"type": "tick", "member": member, "s": payload})
        )

    def inject(self, member: int, tick: int, fault_id: int, fault: Fault) -> None:
        self._lines.append(
            _dumps(
                {
                    "type": "inject",
                    "member": member,
                    "t": tick,
                    "id": fault_id,
                    "kind": fault.kind,
                    "category": fault.category,
                    "canonical_fix": fault.canonical_fix,
                }
            )
        )

    def clear(
        self, member: int, tick: int, fault_id: int, cleared_by: str
    ) -> None:
        self._lines.append(
            _dumps(
                {
                    "type": "clear",
                    "member": member,
                    "t": tick,
                    "id": fault_id,
                    "by": cleared_by,
                }
            )
        )

    def fix(
        self, member: int, tick: int, application: FixApplication
    ) -> None:
        self._lines.append(
            _dumps(
                {
                    "type": "fix",
                    "member": member,
                    "t": tick,
                    "kind": application.kind,
                    "target": application.target,
                }
            )
        )

    def absorb(self, member: int, tick: int, entries) -> None:
        """Record a fleet knowledge absorption (KnowledgeEntry batch)."""
        self._lines.append(
            _dumps(
                {
                    "type": "absorb",
                    "member": member,
                    "t": tick,
                    "entries": [
                        {
                            "symptoms": entry.symptoms,
                            "fix_kind": entry.fix_kind,
                            "origin": entry.origin,
                        }
                        for entry in entries
                    ],
                }
            )
        )

    def summary(self, member: int, injected: int, undetected: int) -> None:
        self._lines.append(
            _dumps(
                {
                    "type": "summary",
                    "member": member,
                    "injected": injected,
                    "undetected": undetected,
                }
            )
        )

    def close(self) -> str:
        """Write the trace line by line; returns its sha256 hex digest."""
        if self._closed:
            raise RuntimeError("trace recorder already closed")
        self._closed = True
        header = dict(self._header or {"type": "header", "version": TRACE_VERSION})
        header["caller_names"] = self._caller_names or []
        header["callee_names"] = self._callee_names or []
        digest = hashlib.sha256()
        # A 1 MiB buffer, not the default 8 KiB, makes the line-by-line
        # writes cheaper than one write of the joined text.
        with open(self.path, "wb", buffering=_IO_BLOCK) as handle:
            for line in itertools.chain([_dumps(header)], self._lines):
                data = (line + "\n").encode("utf-8")
                handle.write(data)
                digest.update(data)
        return digest.hexdigest()


def trace_sha256(path: str) -> str:
    """sha256 hex digest of a trace file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(_IO_BLOCK):
            digest.update(block)
    return digest.hexdigest()


class RecordingInjector(FaultInjector):
    """A fault injector that logs lifecycle + fix events to a trace."""

    def __init__(
        self,
        service: MultitierService,
        recorder: TraceRecorder,
        member: int = 0,
    ) -> None:
        super().__init__(service)
        self.recorder = recorder
        self.member = member
        self._ids: dict[int, int] = {}
        self._next_id = 0

    def inject(self, fault: Fault, now: int) -> Fault:
        fault_id = self._next_id
        self._next_id += 1
        self._ids[id(fault)] = fault_id
        self.recorder.inject(self.member, now, fault_id, fault)
        return super().inject(fault, now)

    def apply_fix(self, application: FixApplication, now: int) -> list[Fault]:
        self.recorder.fix(self.member, now, application)
        return super().apply_fix(application, now)

    def _retire(self, fault: Fault, now: int, cleared_by: str) -> None:
        fault_id = self._ids.get(id(fault))
        if fault_id is not None:
            self.recorder.clear(self.member, now, fault_id, cleared_by)
        super()._retire(fault, now, cleared_by)


# ----------------------------------------------------------------------
# Replay side.
# ----------------------------------------------------------------------


@dataclass
class _MemberTrace:
    """One member's slice of a loaded trace.

    ``ticks`` holds each tick record as its raw line, undecoded; read
    one with :func:`tick_payload`.
    """

    ticks: list[bytes]
    faults: list["ReplayFault"]
    fixes: list[dict]
    absorbs: list[dict]
    injected: int = 0
    undetected: int = 0


def _check_header_ints(path: str, header: dict) -> None:
    """Refuse header integers that orjson decoded as floats.

    orjson reads an integer outside ``[-2**63, 2**64)`` as a float, and
    replay would seed its loop from the rounded value.
    """
    named = [
        (name, header[name])
        for name in ("seed", "threshold")
        if name in header
    ]
    named += [
        (f"member_seeds[{index}]", seed)
        for index, seed in enumerate(header.get("member_seeds", ()))
    ]
    for name, value in named:
        if not isinstance(value, int):
            raise ValueError(
                f"{path}: header field {name} decoded to {value!r}, "
                f"not an integer in [-2**63, 2**64)"
            )


def tick_payload(raw: bytes) -> dict:
    """Decode one raw tick record into its snapshot payload."""
    return orjson.loads(raw)["s"]


def load_trace(path: str) -> tuple[dict, dict[int, _MemberTrace]]:
    """Parse a trace file into its header and per-member slices.

    One pass over the file, one line at a time.  A tick record in the
    writer's canonical form is routed by the member number its prefix
    carries and kept as raw bytes, undecoded until the replay reaches
    it (:func:`tick_payload`).  Every other line is decoded with
    orjson here; a tick record in another form is decoded to route it
    and kept raw as well.
    """
    header: dict | None = None
    members: dict[int, _MemberTrace] = {}

    def member_of(index: int) -> _MemberTrace:
        if index not in members:
            members[index] = _MemberTrace(
                ticks=[], faults=[], fixes=[], absorbs=[]
            )
        return members[index]

    def no_header() -> ValueError:
        return ValueError(f"{path}: not a trace file (no header line)")

    faults_by_key: dict[tuple[int, int], ReplayFault] = {}
    head = len(_TICK_HEAD)
    with open(path, "rb") as handle:
        for raw in handle:
            if raw.startswith(_TICK_HEAD) and raw.endswith(_TICK_TAILS):
                # Anything but ASCII digits before ',"s":' (or no
                # ',"s":' at all, when find's -1 leaves the rest of the
                # line) sends the line to the decoder below.
                digits = raw[head : raw.find(_TICK_SNAPSHOT, head)]
                if digits.isdigit():
                    if header is None:
                        raise no_header()
                    member_of(int(digits)).ticks.append(raw)
                    continue
            if raw.isspace():
                continue
            line = orjson.loads(raw)
            kind = line["type"]
            if kind == "header":
                _check_header_ints(path, line)
                header = line
                continue
            if header is None:
                raise no_header()
            index = int(line.get("member", 0))
            if kind == "tick":
                member_of(index).ticks.append(raw)
            elif kind == "inject":
                fault = ReplayFault(
                    kind=line["kind"],
                    category=line["category"],
                    canonical_fix=line["canonical_fix"],
                    injected_at=int(line["t"]),
                )
                member_of(index).faults.append(fault)
                faults_by_key[(index, line["id"])] = fault
            elif kind == "clear":
                fault = faults_by_key.get((index, line["id"]))
                if fault is not None:
                    fault.cleared_at = int(line["t"])
                    fault.cleared_by = line["by"]
            elif kind == "fix":
                member_of(index).fixes.append(line)
            elif kind == "absorb":
                member_of(index).absorbs.append(line)
            elif kind == "summary":
                slot = member_of(index)
                slot.injected = int(line["injected"])
                slot.undetected = int(line["undetected"])
    if header is None:
        raise no_header()
    return header, members


@dataclass
class ReplayFault:
    """Recorded ground truth of one injected fault.

    Mirrors the :class:`~repro.faults.base.Fault` attributes the
    healing loop's report annotation reads (kind, category,
    canonical_fix, injected_at) without any simulator behavior.
    """

    kind: str
    category: str
    canonical_fix: str
    injected_at: int
    cleared_at: int | None = None
    cleared_by: str | None = None
    active: bool = False


class _FixCursor:
    """Shared walk over the recorded fix applications.

    The replay service peeks it to resolve return values recorded at
    apply time (the hung-query victim, the repartitioned table); the
    replay injector advances it once per applied fix, keeping the peek
    aligned with the recorded application order.
    """

    def __init__(self, fixes: list[dict]) -> None:
        self._fixes = fixes
        self._pos = 0

    def peek_target(self, kind: str) -> str | None:
        if self._pos < len(self._fixes):
            event = self._fixes[self._pos]
            if event["kind"] == kind:
                return event["target"]
        return None

    def advance(self) -> None:
        self._pos += 1


class _ReplayTier:
    """Capacity bookkeeping stub for provisioning fixes."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity


class _ReplayApp(_ReplayTier):
    def __init__(self, capacity: int, beans: list[str]) -> None:
        super().__init__(capacity)
        self.container = _ReplayContainer(beans)


class _ReplayContainer:
    def __init__(self, beans: list[str]) -> None:
        # Only iteration order is consumed (sorted(...) in fix
        # targeting), so a name list is enough.
        self.ejbs = {bean: None for bean in beans}


class ReplayService:
    """Stands in for :class:`MultitierService` during replay.

    ``step()`` decodes the next recorded tick and rebuilds its
    snapshot; every recovery mechanism is a
    no-op whose observable effects are already baked into the recorded
    telemetry.  Fixes that return recorded values (hung-query victim,
    repartitioned table) resolve them from the shared fix cursor so
    the healing loop's retry bookkeeping sees identical targets.
    """

    def __init__(
        self,
        ticks: list[bytes],
        fix_cursor: _FixCursor,
        caller_names: list[str],
        callee_names: list[str],
        beans: list[str],
        capacities: dict[str, int] | None = None,
    ) -> None:
        self._ticks = ticks
        self._pos = 0
        self._cursor = fix_cursor
        self._caller_names = caller_names
        self._callee_names = callee_names
        capacities = capacities or {}
        self.web = _ReplayTier(capacities.get("web", 2))
        self.app = _ReplayApp(capacities.get("app", 8), beans)
        self.db = _ReplayTier(capacities.get("db", 3))
        self.tick = 0
        self.last_snapshot: TickSnapshot | None = None
        self.admin_notifications: list[str] = []
        self.restart_count = 0
        self.tick_hooks: list = []

    @property
    def remaining_ticks(self) -> int:
        return len(self._ticks) - self._pos

    # -- time ----------------------------------------------------------

    def step(self) -> TickSnapshot:
        if self._pos >= len(self._ticks):
            raise TraceExhausted(
                f"trace exhausted after {len(self._ticks)} ticks"
            )
        raw = self._ticks[self._pos]
        self._pos += 1
        snapshot = snapshot_from_payload(
            tick_payload(raw), self._caller_names, self._callee_names
        )
        self.tick = snapshot.tick + 1
        self.last_snapshot = snapshot
        for hook in self.tick_hooks:
            hook(snapshot)
        return snapshot

    def run(self, ticks: int) -> list[TickSnapshot]:
        return [self.step() for _ in range(ticks)]

    # -- recovery mechanisms (no-ops on recorded telemetry) ------------

    def microreboot_ejb(self, bean: str) -> None:
        pass

    def kill_hung_query(self) -> str | None:
        return self._cursor.peek_target("kill_hung_query")

    def reboot_tier(self, tier: str) -> None:
        pass

    def rolling_reboot_tier(self, tier: str, degraded_ticks: int = 10) -> None:
        pass

    def restart_service(self) -> None:
        self.restart_count += 1

    def provision_tier(self, tier: str, extra: int | None = None) -> int:
        target = {"web": self.web, "app": self.app, "db": self.db}[tier]
        target.capacity += extra if extra is not None else target.capacity
        return target.capacity

    def update_statistics(self) -> None:
        pass

    def repartition_table(self, table: str | None = None) -> str:
        if table is not None:
            return table
        recorded = self._cursor.peek_target("repartition_table")
        return recorded if recorded is not None else "items"

    def repartition_memory(self) -> dict[str, float]:
        return {}

    def notify_administrator(self, reason: str) -> None:
        self.admin_notifications.append(reason)

    def rollback_config(self) -> None:
        pass

    def commit_config_baseline(self) -> None:
        pass

    def note_config_change(self) -> None:
        pass

    # Network fix attributes (FailoverNetwork writes these).
    network_multiplier = 1.0
    network_drop_rate = 0.0


class ReplayInjector:
    """Re-enacts the recorded fault lifecycle during replay.

    Activation and most clears follow the recorded timeline in
    :meth:`on_tick`; clears produced by in-replay calls (fix
    applications, the administrator's ``clear_all``) happen at the
    call sites so the healing loop observes the same active set and
    the same administrator canonical fix as during recording.
    """

    # Clears with no corresponding replay-side call: self-clearing
    # faults and the campaign harness's inter-episode cleanup.
    _TIMELINE_CLEARED = ("self", "undetected", "posthoc-cleanup")

    def __init__(self, faults: list[ReplayFault], fix_cursor: _FixCursor) -> None:
        self._pending = sorted(faults, key=lambda f: f.injected_at)
        self._cursor = fix_cursor
        self.active: list[ReplayFault] = []

    @property
    def any_active(self) -> bool:
        return bool(self.active)

    def on_tick(self, now: int) -> list[ReplayFault]:
        while self._pending and self._pending[0].injected_at <= now:
            fault = self._pending.pop(0)
            fault.active = True
            self.active.append(fault)
        cleared: list[ReplayFault] = []
        for fault in list(self.active):
            if fault.cleared_at is None:
                continue
            timeline = fault.cleared_by in self._TIMELINE_CLEARED
            # The `now > cleared_at` arm is a safety net: if replay
            # diverges from the recording (different approach), stale
            # faults must still retire so later episodes aren't
            # annotated with them.
            if (timeline and now >= fault.cleared_at) or now > fault.cleared_at:
                fault.active = False
                self.active.remove(fault)
                cleared.append(fault)
        return cleared

    def apply_fix(
        self, application: FixApplication, now: int
    ) -> list[ReplayFault]:
        self._cursor.advance()
        repaired = [
            fault
            for fault in self.active
            if fault.cleared_by == application.kind
            and fault.cleared_at is not None
            and fault.cleared_at <= now
        ]
        for fault in repaired:
            fault.active = False
            self.active.remove(fault)
        return repaired

    def clear_all(
        self, now: int, cleared_by: str = "administrator"
    ) -> list[ReplayFault]:
        cleared = list(self.active)
        for fault in cleared:
            fault.active = False
        self.active.clear()
        return cleared
