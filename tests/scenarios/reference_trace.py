"""The stdlib trace reader, kept as the differential reference.

:func:`reference_load_trace` is the loader the trace layer shipped
before it decoded with orjson: the file read as text, each line
decoded by ``json.loads``.  :func:`reference_snapshot` is the matching
snapshot rebuild, one keyword call to :class:`TickSnapshot`.  The
tests load one trace with both readers and compare what they return
bit for bit.

Do not optimize this file: its value is that it stays the old code.
"""

from __future__ import annotations

import json

import numpy as np

from repro.scenarios.trace import ReplayFault, _MemberTrace
from repro.simulator.service import TickSnapshot

__all__ = ["reference_load_trace", "reference_snapshot"]


def reference_snapshot(
    payload: dict, caller_names: list[str], callee_names: list[str]
) -> TickSnapshot:
    """Rebuild a snapshot from its trace payload."""
    kwargs = dict(payload)
    matrix = kwargs.get("call_matrix")
    if matrix is not None:
        kwargs["call_matrix"] = np.asarray(matrix, dtype=float)
        kwargs["caller_names"] = list(caller_names)
        kwargs["callee_names"] = list(callee_names)
    return TickSnapshot(**kwargs)


def reference_load_trace(path: str) -> tuple[dict, dict[int, _MemberTrace]]:
    """Parse a trace file into its header and per-member slices."""
    header: dict | None = None
    members: dict[int, _MemberTrace] = {}

    def member_of(line: dict) -> _MemberTrace:
        index = int(line.get("member", 0))
        if index not in members:
            members[index] = _MemberTrace(
                ticks=[], faults=[], fixes=[], absorbs=[]
            )
        return members[index]

    faults_by_key: dict[tuple[int, int], ReplayFault] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            line = json.loads(raw)
            kind = line["type"]
            if kind == "header":
                header = line
                continue
            if header is None:
                raise ValueError(
                    f"{path}: not a trace file (no header line)"
                )
            if kind == "tick":
                member_of(line).ticks.append(line["s"])
            elif kind == "inject":
                slot = member_of(line)
                fault = ReplayFault(
                    kind=line["kind"],
                    category=line["category"],
                    canonical_fix=line["canonical_fix"],
                    injected_at=int(line["t"]),
                )
                slot.faults.append(fault)
                faults_by_key[(int(line.get("member", 0)), line["id"])] = fault
            elif kind == "clear":
                key = (int(line.get("member", 0)), line["id"])
                fault = faults_by_key.get(key)
                if fault is not None:
                    fault.cleared_at = int(line["t"])
                    fault.cleared_by = line["by"]
            elif kind == "fix":
                member_of(line).fixes.append(line)
            elif kind == "absorb":
                member_of(line).absorbs.append(line)
            elif kind == "summary":
                slot = member_of(line)
                slot.injected = int(line["injected"])
                slot.undetected = int(line["undetected"])
    if header is None:
        raise ValueError(f"{path}: not a trace file (no header line)")
    return header, members
