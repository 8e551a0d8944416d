"""Shared-memory round transport for the parallel fleet runner.

The fleet runner's round barrier used to ship pickled symptom matrices
and knowledge packs over ``multiprocessing.Pipe`` every round, which
made knowledge exchange cost as much as the simulation it coordinates.
This module replaces that with three kinds of shared-memory segments;
after a one-time handshake the Pipe carries no per-round traffic at
all — workers and the coordinator synchronize exclusively through
semaphores, with versioned counters in shared memory as checks:

``ControlSegment`` (coordinator → every worker)
    One dispatch record per campaign, ``(round, watermark, lb
    targets)``, plus the abort flag.  The coordinator rewrites it only
    after every worker has finished the previous round, so one record
    is enough: the round barrier itself keeps it from being
    overwritten while a worker still needs it.

``KnowledgeLogSegment`` (coordinator writes, workers read)
    The fleet's append-only knowledge log, laid out ragged: a flat
    float64 data region plus per-entry ``bounds`` offsets, with
    parallel int64 columns for source replica, fix-kind code, and
    origin code.  Workers absorb "entries published before round R" by
    slicing ``[cursor, watermark)`` — exactly the Pipe-era barrier
    semantics, so aggregate statistics stay bit-identical for any
    worker count.  Entries are never mutated after publication, so
    reads are zero-copy views.

``WorkerOutSegment`` (one per worker, coordinator reads)
    One round's output: per-member downtime fractions and absorb
    counts, plus the round's learned (symptoms, fix) pairs in the same
    ragged layout.  A ``consumed`` counter written back by the
    coordinator arms an overwrite guard, so the block is provably never
    rewritten before its round has been read.

Segments carry *data*; round synchronization rides a pair of
``multiprocessing.Semaphore`` lines per worker (dispatch and done).
POSIX semaphores give the cross-process memory ordering plain shared
memory cannot: every store the releasing side made before
``release()`` is visible to the side that returns from ``acquire()``,
on any architecture — the counters inside the segments are
bookkeeping and sanity checks, never fences.
:func:`acquire_with_liveness` wraps the blocking acquire with
periodic liveness callbacks so a dead peer aborts the campaign
instead of hanging it.

Symptom vectors travel as raw float64 — a pack/unpack round-trip
through :func:`pack_ragged`/:func:`unpack_ragged` reproduces every
vector bit-for-bit, including mixed-length batches and empty rounds
(the property tests in ``tests/fleet`` pin this down).  Fix kinds and
origins travel as indices into a :class:`Vocab` fixed at campaign
start.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ControlSegment",
    "KnowledgeLogSegment",
    "Vocab",
    "WorkerOutSegment",
    "acquire_with_liveness",
    "attach_segment",
    "pack_ragged",
    "unpack_ragged",
]

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


# ----------------------------------------------------------------------
# Ragged pack/unpack: the wire format for variable-length float vectors.
# ----------------------------------------------------------------------


def pack_ragged(
    vectors: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack float vectors into ``(flat, lengths)``.

    Handles mixed lengths and the empty batch; the round-trip through
    :func:`unpack_ragged` reproduces every vector verbatim (float64
    values are copied, never re-encoded).
    """
    if not vectors:
        return np.zeros(0, dtype=_F64), np.zeros(0, dtype=_I64)
    arrays = [np.asarray(v, dtype=_F64).ravel() for v in vectors]
    lengths = np.asarray([a.size for a in arrays], dtype=_I64)
    return np.concatenate(arrays), lengths


def unpack_ragged(
    flat: np.ndarray, lengths: np.ndarray
) -> list[np.ndarray]:
    """Inverse of :func:`pack_ragged`; returns detached copies."""
    bounds = np.zeros(len(lengths) + 1, dtype=_I64)
    np.cumsum(lengths, out=bounds[1:])
    if int(bounds[-1]) != len(flat):
        raise ValueError(
            f"lengths sum to {int(bounds[-1])} but flat has {len(flat)}"
        )
    return [
        np.array(flat[bounds[i] : bounds[i + 1]], dtype=_F64)
        for i in range(len(lengths))
    ]


# ----------------------------------------------------------------------
# Vocabulary: fix kinds / origins as int64 codes.
# ----------------------------------------------------------------------


class Vocab:
    """Fixed string vocabulary shared by coordinator and workers.

    Built once at campaign start from the fix catalog plus the two
    contribution origins; encoding an unknown string raises (it would
    mean a fix kind outside the catalog crossed the fleet boundary,
    which the knowledge base could not have stored before either).
    """

    def __init__(self, words: tuple[str, ...]) -> None:
        self.words = tuple(words)
        self._index = {word: i for i, word in enumerate(self.words)}

    def encode(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise ValueError(
                f"{word!r} is not in the fleet transport vocabulary "
                f"(known: {', '.join(self.words)})"
            ) from None

    def decode(self, code: int) -> str:
        return self.words[code]


# ----------------------------------------------------------------------
# Barrier acquire with liveness checks.
# ----------------------------------------------------------------------


def acquire_with_liveness(
    semaphore,
    *,
    timeout: float = 600.0,
    liveness=None,
    what: str = "round barrier",
) -> None:
    """Acquire a barrier semaphore, checking the peer stays alive.

    Blocks in short slices so ``liveness`` (if given) runs every
    ~0.25s and may raise to abort the wait — the coordinator checks
    worker processes there, workers check the coordinator's abort
    flag.  The successful acquire carries the release side's memory
    ordering (sem_post/sem_wait), which is what makes the
    shared-memory payloads safe to read on any architecture.
    """
    deadline = time.monotonic() + timeout
    while True:
        if semaphore.acquire(timeout=0.25):
            return
        if liveness is not None:
            liveness()
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# Segment plumbing.
# ----------------------------------------------------------------------


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment created by the coordinator.

    Worker processes are children of the coordinator, so they share
    its resource-tracker process: the attach-side ``register`` call is
    deduplicated against the creator's, and the coordinator's
    ``unlink`` at teardown is the single cleanup point.  (Do *not*
    ``unregister`` here — with a shared tracker that would clobber the
    coordinator's registration.)
    """
    return shared_memory.SharedMemory(name=name)


class _Segment:
    """Base: a SharedMemory block carved into typed numpy views."""

    def __init__(
        self, total_bytes: int, name: str | None, create: bool
    ) -> None:
        if create:
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(total_bytes, 8)
            )
        else:
            self.shm = attach_segment(name)
        self._cursor = 0
        self.owner = create

    @property
    def name(self) -> str:
        return self.shm.name

    def _carve(self, count: int, dtype: np.dtype) -> np.ndarray:
        start = self._cursor
        nbytes = count * dtype.itemsize
        view = np.frombuffer(
            self.shm.buf, dtype=dtype, count=count, offset=start
        )
        self._cursor = start + nbytes
        return view

    def close(self) -> None:
        # Views into shm.buf must be dropped before close() or the
        # exported-pointer check raises.
        for key, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                setattr(self, key, None)
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - interpreter-dependent
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


class ControlSegment(_Segment):
    """The sharded fleet executor's dispatch record, shared by all workers.

    Layout: ``[abort, round, watermark] | targets[n_services]``.  The
    coordinator fills the record immediately before releasing every
    worker's dispatch semaphore — the release fences the stores — and
    rewrites it only after it has acquired every worker's done
    semaphore for the previous round, by which time each worker has
    read it.  The watermark is ``log.published`` at dispatch time:
    every entry merged before the round, the serial runner's cursor
    semantics.
    """

    HEADER = 3

    def __init__(self, n_services: int, *, name: str | None = None) -> None:
        self.n_services = int(n_services)
        total = self.HEADER * _I64.itemsize + self.n_services * _F64.itemsize
        super().__init__(total, name, create=name is None)
        self._header = self._carve(self.HEADER, _I64)
        self._targets = self._carve(self.n_services, _F64)
        if self.owner:
            self._header[:] = (0, -1, 0)
            self._targets[:] = 1.0

    @classmethod
    def attach(cls, name: str, n_services: int) -> "ControlSegment":
        return cls(n_services, name=name)

    def publish(self, round_index: int, watermark: int, lb_targets) -> None:
        """Record one dispatch (caller releases the semaphores after)."""
        self._header[1] = round_index
        self._header[2] = watermark
        self._targets[:] = lb_targets

    def read_round(self, round_index: int) -> tuple[int, np.ndarray]:
        """The (watermark, lb targets) dispatched for ``round_index``.

        Raises if the record holds another round — a dispatch
        discipline violation the round barrier should make impossible.
        """
        held = int(self._header[1])
        if held != round_index:
            raise RuntimeError(
                f"control record holds round {held}, expected "
                f"{round_index} — dispatch discipline violated"
            )
        return int(self._header[2]), self._targets.copy()

    def abort(self) -> None:
        self._header[0] = 1

    def aborted(self) -> bool:
        return bool(self._header[0])


class KnowledgeLogSegment(_Segment):
    """The fleet's append-only knowledge log, in shared memory.

    Ragged columnar layout — ``sources`` / ``fix_codes`` /
    ``origin_codes`` int64 columns, per-entry ``bounds`` offsets into a
    flat float64 ``data`` region.  Only the coordinator appends (in
    replica order at each barrier, preserving the serial merge order),
    and always *before* releasing the dispatch semaphores that carry
    the round's watermark — the semaphore is the fence that makes the
    appended block readable; the ``published`` counter is a sanity
    check.  Entries are immutable once appended, so workers slice
    zero-copy views below the watermark.
    """

    HEADER = 1

    def __init__(
        self,
        capacity_entries: int,
        data_capacity: int,
        *,
        name: str | None = None,
    ) -> None:
        self.capacity_entries = int(capacity_entries)
        self.data_capacity = int(data_capacity)
        total = (
            self.HEADER + 3 * self.capacity_entries + self.capacity_entries + 1
        ) * _I64.itemsize + self.data_capacity * _F64.itemsize
        super().__init__(total, name, create=name is None)
        self._header = self._carve(self.HEADER, _I64)
        self._sources = self._carve(self.capacity_entries, _I64)
        self._fix_codes = self._carve(self.capacity_entries, _I64)
        self._origin_codes = self._carve(self.capacity_entries, _I64)
        self._bounds = self._carve(self.capacity_entries + 1, _I64)
        self._data = self._carve(self.data_capacity, _F64)
        if self.owner:
            self._header[:] = 0
            self._bounds[0] = 0

    @classmethod
    def attach(
        cls, name: str, capacity_entries: int, data_capacity: int
    ) -> "KnowledgeLogSegment":
        return cls(capacity_entries, data_capacity, name=name)

    @property
    def published(self) -> int:
        return int(self._header[0])

    def append_batch(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        sources: np.ndarray,
        fix_codes: np.ndarray,
        origin_codes: np.ndarray,
    ) -> int:
        """Append a stacked block of entries; returns the new count.

        One vectorized store per column — no per-entry Python work.
        """
        n = len(lengths)
        if n == 0:
            return self.published
        lo = self.published
        hi = lo + n
        start = int(self._bounds[lo])
        if hi > self.capacity_entries or start + len(flat) > self.data_capacity:
            raise RuntimeError(
                "knowledge log overflow: "
                f"{hi} entries / {start + len(flat)} floats exceed the "
                f"segment capacity ({self.capacity_entries} entries / "
                f"{self.data_capacity} floats) — the structural bound "
                "of one contribution per episode was violated"
            )
        self._sources[lo:hi] = sources
        self._fix_codes[lo:hi] = fix_codes
        self._origin_codes[lo:hi] = origin_codes
        np.cumsum(lengths, out=self._bounds[lo + 1 : hi + 1])
        self._bounds[lo + 1 : hi + 1] += start
        self._data[start : start + len(flat)] = flat
        self._header[0] = hi
        return hi

    def read_entries(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy views of entries ``[lo, hi)``.

        Returns ``(sources, fix_codes, origin_codes, bounds, data)``
        where ``bounds`` has ``hi - lo + 1`` offsets into ``data`` (the
        whole data region, so offsets stay absolute).
        """
        return (
            self._sources[lo:hi],
            self._fix_codes[lo:hi],
            self._origin_codes[lo:hi],
            self._bounds[lo : hi + 1],
            self._data,
        )


class WorkerOutSegment(_Segment):
    """One worker's round output block.

    Layout: ``[rounds_completed, consumed] | downtime[f64 n_members] |
    absorbed[i64 n_members] | counts[i64 n_members] |
    lengths/fix/origin[i64 max_entries] | data[f64 data_capacity]``.
    Contributions are written grouped by member in index order — the
    coordinator regroups them by replica with the ``counts`` column.
    The worker fills the block and then releases its done semaphore,
    which fences the stores for the coordinator's read.

    ``rounds_completed`` (worker → coordinator) is a sanity counter,
    not a fence: :meth:`read_round` checks the block holds the round
    asked for.  ``consumed`` (coordinator → worker) is the number of
    rounds the coordinator has finished reading; :meth:`write_round`
    refuses to overwrite a round that has not been consumed, so a
    protocol bug that would silently corrupt an unread round fails
    loudly instead.  The guard can never false-positive: the dispatch
    for round R is only issued once round R-1 is consumed, and the
    dispatch semaphore fences that store.
    """

    HEADER = 2

    def __init__(
        self,
        n_members: int,
        max_entries: int,
        data_capacity: int,
        *,
        name: str | None = None,
    ) -> None:
        self.n_members = int(n_members)
        self.max_entries = int(max_entries)
        self.data_capacity = int(data_capacity)
        total = (
            self.HEADER + 2 * self.n_members + 3 * self.max_entries
        ) * _I64.itemsize + (
            self.n_members + self.data_capacity
        ) * _F64.itemsize
        super().__init__(total, name, create=name is None)
        self._header = self._carve(self.HEADER, _I64)
        self._downtime = self._carve(self.n_members, _F64)
        self._absorbed = self._carve(self.n_members, _I64)
        self._counts = self._carve(self.n_members, _I64)
        self._lengths = self._carve(self.max_entries, _I64)
        self._fix_codes = self._carve(self.max_entries, _I64)
        self._origin_codes = self._carve(self.max_entries, _I64)
        self._data = self._carve(self.data_capacity, _F64)
        if self.owner:
            self._header[:] = 0

    @classmethod
    def attach(
        cls,
        name: str,
        n_members: int,
        max_entries: int,
        data_capacity: int,
    ) -> "WorkerOutSegment":
        return cls(n_members, max_entries, data_capacity, name=name)

    @property
    def rounds_completed(self) -> int:
        return int(self._header[0])

    @property
    def consumed(self) -> int:
        """Rounds the coordinator has finished reading."""
        return int(self._header[1])

    def mark_consumed(self, round_index: int) -> None:
        """Coordinator: round ``round_index``'s block may be reused."""
        self._header[1] = round_index + 1

    def write_round(
        self,
        round_index: int,
        downtime: list[float],
        absorbed: list[int],
        counts: list[int],
        flat: np.ndarray,
        lengths: np.ndarray,
        fix_codes: np.ndarray,
        origin_codes: np.ndarray,
    ) -> None:
        """Fill the block with one round (caller signals done after)."""
        n = len(lengths)
        if n > self.max_entries or len(flat) > self.data_capacity:
            raise RuntimeError(
                f"worker round output overflow: {n} entries / "
                f"{len(flat)} floats exceed the buffer capacity "
                f"({self.max_entries} entries / "
                f"{self.data_capacity} floats)"
            )
        if self.consumed < round_index:
            raise RuntimeError(
                f"output block overwrite: round {round_index} would "
                f"replace round {round_index - 1}, which the "
                f"coordinator has not consumed yet "
                f"(consumed={self.consumed})"
            )
        self._downtime[:] = downtime
        self._absorbed[:] = absorbed
        self._counts[:] = counts
        self._lengths[:n] = lengths
        self._fix_codes[:n] = fix_codes
        self._origin_codes[:n] = origin_codes
        self._data[: len(flat)] = flat
        self._header[0] = round_index + 1

    def read_round(self, round_index: int) -> dict:
        """Zero-copy views of the round the block holds.

        Valid until :meth:`mark_consumed` releases the block to the
        worker's next round.
        """
        if self.rounds_completed != round_index + 1:
            raise RuntimeError(
                f"output block holds round {self.rounds_completed - 1}, "
                f"expected {round_index}"
            )
        n = int(self._counts.sum())
        lengths = self._lengths[:n]
        return {
            "downtime": self._downtime,
            "absorbed": self._absorbed,
            "counts": self._counts,
            "lengths": lengths,
            "fix_codes": self._fix_codes[:n],
            "origin_codes": self._origin_codes[:n],
            "flat": self._data[: int(lengths.sum())],
        }
