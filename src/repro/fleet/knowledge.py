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

Storage is *columnar*: symptom vectors live in one flat float64 region
with per-entry offsets, sources in an int64 column, and fix kinds /
origins as coded columns over a growable vocabulary.  A stacked block
of contributions merges with one vectorized copy per column, and
:class:`KnowledgeEntry` objects are materialized lazily, only for the
foreign entries a replica actually absorbs.  The fleet runner's
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

_GROW = 256  # initial column capacity; doubles on demand


@dataclass(frozen=True)
class KnowledgeEntry:
    """One published (symptoms, fix) signature.

    Attributes:
        seq: global publication order (the cursor key).
        source: index of the replica that learned the pair.
        symptoms: the failure symptom vector.
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
    """Append-only columnar log of signatures published by replicas."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._n = 0
        self._data = np.zeros(0, dtype=np.float64)
        self._data_used = 0
        self._bounds = np.zeros(1, dtype=np.int64)
        self._sources = np.zeros(0, dtype=np.int64)
        self._fix_codes = np.zeros(0, dtype=np.int64)
        self._origin_codes = np.zeros(0, dtype=np.int64)
        self._vocab: list[str] = []
        self._vocab_index: dict[str, int] = {}

    @property
    def n_entries(self) -> int:
        return self._n

    @property
    def data_bytes(self) -> int:
        """Symptom-vector payload published so far, in bytes.

        The knowledge accounting number: float64 symptom data only
        (the coded string/source columns are a few int64s per entry).
        """
        return int(self._data_used) * 8

    @property
    def entries(self) -> list[KnowledgeEntry]:
        """All entries, materialized (back-compat / inspection API)."""
        return [self._materialize(i) for i in range(self._n)]

    # ------------------------------------------------------------------
    # Columnar internals.
    # ------------------------------------------------------------------

    def _code(self, word: str) -> int:
        code = self._vocab_index.get(word)
        if code is None:
            code = len(self._vocab)
            self._vocab.append(word)
            self._vocab_index[word] = code
        return code

    @staticmethod
    def _grown(column: np.ndarray, needed: int) -> np.ndarray:
        if needed <= len(column):
            return column
        capacity = max(_GROW, len(column))
        while capacity < needed:
            capacity *= 2
        grown = np.zeros(capacity, dtype=column.dtype)
        grown[: len(column)] = column
        return grown

    def _materialize(self, seq: int) -> KnowledgeEntry:
        lo, hi = int(self._bounds[seq]), int(self._bounds[seq + 1])
        return KnowledgeEntry(
            seq=seq,
            source=int(self._sources[seq]),
            symptoms=self._data[lo:hi].copy(),
            fix_kind=self._vocab[int(self._fix_codes[seq])],
            origin=self._vocab[int(self._origin_codes[seq])],
        )

    # ------------------------------------------------------------------
    # Publication.
    # ------------------------------------------------------------------

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
        vector = np.asarray(symptoms, dtype=np.float64).ravel()
        self.contribute_batch(
            vector,
            np.asarray([vector.size], dtype=np.int64),
            np.asarray([source], dtype=np.int64),
            [fix_kind],
            [origin],
        )
        return self._materialize(self._n - 1)

    def contribute_batch(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        sources: np.ndarray,
        fix_kinds: list[str] | np.ndarray,
        origins: list[str] | np.ndarray,
    ) -> int:
        """Publish a stacked block of entries in one vectorized append.

        ``flat`` concatenates the block's symptom vectors (ragged, cut
        by ``lengths``); the float data lands with a single copy and
        the metadata columns with one store each.  Returns the number
        of entries appended (0 when sharing is disabled).
        """
        if not self.enabled or len(lengths) == 0:
            return 0
        fix_codes = [self._code(w) for w in fix_kinds]
        origin_codes = [self._code(w) for w in origins]
        k = len(lengths)
        hi = self._n + k
        self._sources = self._grown(self._sources, hi)
        self._fix_codes = self._grown(self._fix_codes, hi)
        self._origin_codes = self._grown(self._origin_codes, hi)
        self._bounds = self._grown(self._bounds, hi + 1)
        self._data = self._grown(self._data, self._data_used + len(flat))
        self._sources[self._n : hi] = sources
        self._fix_codes[self._n : hi] = fix_codes
        self._origin_codes[self._n : hi] = origin_codes
        np.cumsum(
            np.asarray(lengths, dtype=np.int64),
            out=self._bounds[self._n + 1 : hi + 1],
        )
        self._bounds[self._n + 1 : hi + 1] += self._data_used
        self._data[self._data_used : self._data_used + len(flat)] = flat
        self._data_used += len(flat)
        self._n = hi
        return k

    # ------------------------------------------------------------------
    # Absorption.
    # ------------------------------------------------------------------

    def updates_for(
        self, source: int, cursor: int
    ) -> tuple[list[KnowledgeEntry], int]:
        """Entries published since ``cursor`` by *other* replicas.

        Returns the foreign entries plus the new cursor (always the
        current log length, so own contributions are skipped forever,
        not re-examined).  Only the foreign entries are materialized.
        """
        return self.updates_window(source, cursor, self._n)

    def updates_window(
        self, source: int, cursor: int, watermark: int
    ) -> tuple[list[KnowledgeEntry], int]:
        """Foreign entries in ``[cursor, watermark)``, plus new cursor.

        The serial runner's per-round absorption: each replica absorbs
        up to the round-start watermark (clamped to the published
        count) and resumes from there next round.  Because the cursor
        advances exactly to the watermark, every published entry is
        absorbed exactly once per replica no matter how the watermarks
        are staggered — the conservation property the knowledge
        property tests pin down.  ``updates_for`` is the
        ``watermark = n_entries`` special case.
        """
        watermark = min(int(watermark), self._n)
        if watermark < cursor:
            raise ValueError(
                f"watermark {watermark} behind cursor {cursor}: "
                "absorption cannot move backwards"
            )
        foreign = np.nonzero(
            self._sources[cursor:watermark] != source
        )[0]
        fresh = [self._materialize(cursor + int(i)) for i in foreign]
        return fresh, watermark

    def by_source(self) -> dict[int, int]:
        sources, counts = np.unique(
            self._sources[: self._n], return_counts=True
        )
        return {int(s): int(c) for s, c in zip(sources, counts)}


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
