"""Shared healing knowledge across a fleet of deployments.

"FixSym focuses on finding a correct and efficient fix ... based on
information about fixes that worked previously" — and that information
need not have been learned on *this* deployment.  The knowledge base
is the fleet's exchange point for learned (symptoms, fix) signatures:
each replica publishes the pairs its own healing episodes produce
(successful automated fixes and administrator root-cause fixes), and
periodically absorbs the pairs published by its peers into its local
synopsis.

The exchange is pull-based and cursor-tracked so a replica never
re-absorbs pairs it has already merged, and never absorbs its own
contributions (those are already in its synopsis).  An ``enabled``
switch turns the whole mechanism off for the sharing ablation.

The base is an append-only list of :class:`KnowledgeEntry`.  Each
entry's symptom vector is a read-only float64 copy, so every replica
that absorbs an entry can share the one object.  The fleet runner's
coordinator merges every round into one base; in the sharded runner
each worker keeps a replica of it, extended by the entries each round
message carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approaches.base import FixIdentifier
from repro.core.approaches.signature import SignatureApproach
from repro.core.types import Recommendation
from repro.monitoring.detector import FailureEvent

__all__ = [
    "KnowledgeEntry",
    "KnowledgeSharingApproach",
    "SharedKnowledgeBase",
]


@dataclass(frozen=True)
class KnowledgeEntry:
    """One published (symptoms, fix) signature.

    Attributes:
        seq: global publication order (the cursor key).
        source: index of the replica that learned the pair.
        symptoms: the failure symptom vector (read-only float64).
        fix_kind: the fix that repaired that failure.
        origin: ``"healed"`` (automated fix verified against the SLO)
            or ``"admin"`` (the administrator's root-cause fix,
            Figure 3 line 20).
    """

    seq: int
    source: int
    symptoms: np.ndarray
    fix_kind: str
    origin: str = "healed"


class SharedKnowledgeBase:
    """Append-only log of signatures published by replicas."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: list[KnowledgeEntry] = []
        self._data_bytes = 0

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def data_bytes(self) -> int:
        """Symptom-vector payload published so far, in bytes."""
        return self._data_bytes

    def contribute(
        self,
        source: int,
        symptoms: np.ndarray,
        fix_kind: str,
        origin: str = "healed",
    ) -> KnowledgeEntry | None:
        """Publish one learned pair; no-op when sharing is disabled."""
        if not self.enabled:
            return None
        vector = np.asarray(symptoms, dtype=np.float64).flatten()
        vector.flags.writeable = False
        entry = KnowledgeEntry(
            seq=len(self._entries),
            source=source,
            symptoms=vector,
            fix_kind=fix_kind,
            origin=origin,
        )
        self._entries.append(entry)
        self._data_bytes += vector.nbytes
        return entry

    def updates_window(
        self, source: int, cursor: int, watermark: int
    ) -> tuple[list[KnowledgeEntry], int]:
        """Foreign entries in ``[cursor, watermark)``, plus new cursor.

        Each replica absorbs up to the round-start watermark (clamped
        to the published count) and resumes from there next round.
        Because the cursor advances exactly to the watermark, every
        published entry is absorbed exactly once per replica no matter
        how the watermarks are staggered — the conservation property
        the knowledge property tests pin down.
        """
        watermark = min(int(watermark), len(self._entries))
        if watermark < cursor:
            raise ValueError(
                f"watermark {watermark} behind cursor {cursor}: "
                "absorption cannot move backwards"
            )
        fresh = [
            entry
            for entry in self._entries[cursor:watermark]
            if entry.source != source
        ]
        return fresh, watermark


class KnowledgeSharingApproach(FixIdentifier):
    """Wraps a signature approach with fleet knowledge exchange.

    Recommendation and learning delegate to the wrapped
    :class:`SignatureApproach`; on top of that the wrapper

    * captures every pair the local loop learns (successful fixes,
      Figure 3 line 15, and admin fixes, line 20) into an outbox the
      fleet runner drains into the shared knowledge base; and
    * absorbs foreign pairs into the local synopsis via
      :meth:`Synopsis.merge_samples`.
    """

    name = "shared_signature"
    requires_invasive = False

    def __init__(self, inner: SignatureApproach, source: int) -> None:
        self.inner = inner
        self.source = source
        self.outbox: list[tuple[np.ndarray, str, str]] = []
        self.absorbed = 0

    @property
    def synopsis(self):
        return self.inner.synopsis

    # ------------------------------------------------------------------
    # FixIdentifier delegation + capture.
    # ------------------------------------------------------------------

    def recommend(
        self, event: FailureEvent, exclude: set[str] | None = None
    ) -> list[Recommendation]:
        return self.inner.recommend(event, exclude=exclude)

    def observe_tick(self, row: np.ndarray, violated: bool) -> None:
        self.inner.observe_tick(row, violated)

    def observe_outcome(
        self,
        event: FailureEvent,
        recommendation: Recommendation,
        fixed: bool,
    ) -> None:
        self.inner.observe_outcome(event, recommendation, fixed)
        if fixed:
            self.outbox.append(
                (
                    np.asarray(event.symptoms, dtype=float).copy(),
                    recommendation.fix_kind,
                    "healed",
                )
            )

    def observe_admin_fix(self, event: FailureEvent, fix_kind: str) -> None:
        self.inner.observe_admin_fix(event, fix_kind)
        self.outbox.append(
            (np.asarray(event.symptoms, dtype=float).copy(), fix_kind, "admin")
        )

    # ------------------------------------------------------------------
    # Fleet exchange.
    # ------------------------------------------------------------------

    def drain(self) -> list[tuple[np.ndarray, str, str]]:
        """Hand the round's learned pairs to the fleet runner."""
        pending, self.outbox = self.outbox, []
        return pending

    def absorb(self, entries: list[KnowledgeEntry]) -> int:
        """Merge foreign signatures into the local synopsis."""
        merged = self.synopsis.merge_samples(
            [(entry.symptoms, entry.fix_kind) for entry in entries]
        )
        self.absorbed += merged
        return merged
