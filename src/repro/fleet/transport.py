"""Shared-memory round transport for the parallel fleet runner.

The fleet runner's round barrier used to ship pickled symptom matrices
and knowledge packs over ``multiprocessing.Pipe`` every round, which
made knowledge exchange cost as much as the simulation it coordinates.
This module replaces that with three kinds of shared-memory segments;
after a one-time handshake the Pipe carries no per-round traffic at
all — workers and the coordinator synchronize exclusively through
semaphores, with versioned counters in shared memory as checks:

``StalenessControlSegment`` (coordinator → one worker)
    A per-worker ring of dispatch records ``(round, watermark, merge
    frontier, lb targets)``, written immediately before the worker's
    dispatch release.  The watermark is whatever the coordinator has
    merged *by dispatch time* — decoupled from the round counter —
    which is what lets a staleness budget ``K > 0`` dispatch workers
    ahead of the merge; at ``K = 0`` it is the round barrier's
    watermark.

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
    Ring-buffered round output, sized from the staleness budget by
    :func:`ring_slots_for`: per-member downtime fractions and absorb
    counts, plus the round's learned (symptoms, fix) pairs in the same
    ragged layout.  The ring lets a worker run ahead of the merge
    frontier into other slots; a ``consumed`` counter written back by
    the coordinator arms an overwrite guard, so a slot is provably
    never rewritten before its round has been read.

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
    "KnowledgeLogSegment",
    "StalenessControlSegment",
    "Vocab",
    "WorkerOutSegment",
    "acquire_with_liveness",
    "attach_segment",
    "pack_ragged",
    "ring_slots_for",
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


#: Ring depth used for an unbounded (``K = inf``) staleness budget.
#: The knowledge bound never applies, so the ring only provides
#: backpressure against the coordinator's consumption pace.
UNBOUNDED_RING_SLOTS = 8


def ring_slots_for(staleness_rounds: int | float) -> int:
    """Output-ring depth for one staleness budget.

    A worker running round R may be up to ``K`` rounds ahead of the
    merge frontier, so ``K + 1`` slots can be in flight at once
    (rounds ``F .. F + K``); one slack slot keeps the dispatch gate
    off the hot edge.  ``inf`` gets a fixed depth — there the ring is
    pure backpressure, not part of the staleness bound.
    """
    if staleness_rounds == float("inf"):
        return UNBOUNDED_RING_SLOTS
    return max(2, int(staleness_rounds) + 2)


class StalenessControlSegment(_Segment):
    """Per-worker dispatch ring of the sharded fleet executor.

    Layout: ``[abort] | records[n_slots][3] | targets[n_slots][n_services]``
    where a record is ``(round, watermark, merge_frontier)``.  The
    coordinator fills slot ``round % n_slots`` immediately before
    releasing that worker's dispatch semaphore — the release fences
    the stores.  The slot for round R is only rewritten when round
    ``R + n_slots`` is dispatched, and the dispatch gate
    (``dispatched - consumed < n_slots``) guarantees the worker has
    long since read R by then.

    The watermark in a record is *not* a function of the round
    number: it is whatever the shared knowledge log held when the
    dispatch was issued.  With ``K = 0`` the dispatch is only issued
    once every prior round is merged, so the record carries the round
    barrier's watermark — the transport half of the argument that any
    worker count reproduces the serial runner.
    """

    HEADER = 1

    def __init__(
        self,
        n_slots: int,
        n_services: int,
        *,
        name: str | None = None,
    ) -> None:
        self.n_slots = int(n_slots)
        self.n_services = int(n_services)
        total = (self.HEADER + 3 * self.n_slots) * _I64.itemsize + (
            self.n_slots * self.n_services
        ) * _F64.itemsize
        super().__init__(total, name, create=name is None)
        self._header = self._carve(self.HEADER, _I64)
        self._records = self._carve(3 * self.n_slots, _I64).reshape(
            self.n_slots, 3
        )
        self._targets = self._carve(
            self.n_slots * self.n_services, _F64
        ).reshape(self.n_slots, self.n_services)
        if self.owner:
            self._header[:] = 0
            self._records[:] = -1
            self._targets[:] = 1.0

    @classmethod
    def attach(
        cls, name: str, n_slots: int, n_services: int
    ) -> "StalenessControlSegment":
        return cls(n_slots, n_services, name=name)

    def publish_dispatch(
        self,
        round_index: int,
        watermark: int,
        frontier: int,
        lb_targets,
    ) -> None:
        """Record one dispatch (caller releases the semaphore after)."""
        slot = round_index % self.n_slots
        self._records[slot, 0] = round_index
        self._records[slot, 1] = watermark
        self._records[slot, 2] = frontier
        self._targets[slot, :] = lb_targets

    def read_dispatch(
        self, round_index: int
    ) -> tuple[int, int, np.ndarray]:
        """The (watermark, merge frontier, lb targets) of one dispatch.

        Raises if the slot does not hold the expected round — a ring
        discipline violation the dispatch gate should make impossible.
        """
        slot = round_index % self.n_slots
        if int(self._records[slot, 0]) != round_index:
            raise RuntimeError(
                f"staleness control slot {slot} holds round "
                f"{int(self._records[slot, 0])}, expected {round_index} "
                "— dispatch ring discipline violated"
            )
        return (
            int(self._records[slot, 1]),
            int(self._records[slot, 2]),
            self._targets[slot].copy(),
        )

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
    """One worker's ring-buffered round output block.

    Per slot: ``downtime[f64 n_members] | absorbed[i64 n_members] |
    counts[i64 n_members] | lengths/fix/origin[i64 max_entries] |
    data[f64 data_capacity]``.  Contributions are written grouped by
    member in index order — the coordinator regroups them by replica
    with the ``counts`` column.  The slot for round R is
    ``R % n_slots``; the worker fills it and then releases its done
    semaphore, which fences the stores for the coordinator's read.

    The executor sizes the ring from the staleness budget via
    :func:`ring_slots_for` so a worker can run up to K rounds ahead of
    the merge frontier.

    Two counters live in the header.  ``rounds_completed`` (worker →
    coordinator) is a sanity counter, not a fence.  ``consumed``
    (coordinator → worker) is the number of rounds the coordinator
    has finished reading; :meth:`write_round` refuses to reuse a slot
    whose previous tenant has not been consumed, so a protocol bug
    that would silently corrupt an unread round fails loudly instead.
    The guard can never false-positive: the dispatch for round R is
    only issued once ``consumed >= R - n_slots + 1``, and the dispatch
    semaphore fences that store.
    """

    HEADER = 2

    def __init__(
        self,
        n_members: int,
        max_entries: int,
        data_capacity: int,
        *,
        n_slots: int = 2,
        name: str | None = None,
    ) -> None:
        self.n_members = int(n_members)
        self.max_entries = int(max_entries)
        self.data_capacity = int(data_capacity)
        self.n_slots = int(n_slots)
        if self.n_slots < 2:
            raise ValueError(
                f"output ring needs >= 2 slots, got {self.n_slots}"
            )
        per_buffer_i64 = 2 * self.n_members + 3 * self.max_entries
        total = (
            (self.HEADER + self.n_slots * per_buffer_i64) * _I64.itemsize
            + self.n_slots
            * (self.n_members + self.data_capacity)
            * _F64.itemsize
        )
        super().__init__(total, name, create=name is None)
        self._header = self._carve(self.HEADER, _I64)
        self._buffers = []
        for _ in range(self.n_slots):
            buffer = {
                "downtime": self._carve(self.n_members, _F64),
                "absorbed": self._carve(self.n_members, _I64),
                "counts": self._carve(self.n_members, _I64),
                "lengths": self._carve(self.max_entries, _I64),
                "fix_codes": self._carve(self.max_entries, _I64),
                "origin_codes": self._carve(self.max_entries, _I64),
                "data": self._carve(self.data_capacity, _F64),
            }
            self._buffers.append(buffer)
        if self.owner:
            self._header[:] = 0

    @classmethod
    def attach(
        cls,
        name: str,
        n_members: int,
        max_entries: int,
        data_capacity: int,
        n_slots: int = 2,
    ) -> "WorkerOutSegment":
        return cls(
            n_members,
            max_entries,
            data_capacity,
            n_slots=n_slots,
            name=name,
        )

    def close(self) -> None:
        self._buffers = []
        super().close()

    @property
    def rounds_completed(self) -> int:
        return int(self._header[0])

    @property
    def consumed(self) -> int:
        """Rounds the coordinator has finished reading."""
        return int(self._header[1])

    def mark_consumed(self, round_index: int) -> None:
        """Coordinator: round ``round_index``'s slot may be reused."""
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
        """Fill one round's output slot (caller signals done after)."""
        n = len(lengths)
        if n > self.max_entries or len(flat) > self.data_capacity:
            raise RuntimeError(
                f"worker round output overflow: {n} entries / "
                f"{len(flat)} floats exceed the buffer capacity "
                f"({self.max_entries} entries / "
                f"{self.data_capacity} floats)"
            )
        if round_index - self.consumed >= self.n_slots:
            raise RuntimeError(
                f"output ring overwrite: round {round_index} would "
                f"reuse the slot of round {round_index - self.n_slots}, "
                f"which the coordinator has not consumed yet "
                f"(consumed={self.consumed}, n_slots={self.n_slots})"
            )
        buffer = self._buffers[round_index % self.n_slots]
        buffer["downtime"][:] = downtime
        buffer["absorbed"][:] = absorbed
        buffer["counts"][:] = counts
        buffer["lengths"][:n] = lengths
        buffer["fix_codes"][:n] = fix_codes
        buffer["origin_codes"][:n] = origin_codes
        buffer["data"][: len(flat)] = flat
        self._header[0] = round_index + 1

    def read_round(self, round_index: int) -> dict:
        """Zero-copy views of one published round's output.

        Valid until the worker starts round ``round_index + n_slots``.
        Callers that hold the data past :meth:`mark_consumed` must
        copy first (the executor's stash does).
        """
        buffer = self._buffers[round_index % self.n_slots]
        n = int(buffer["counts"].sum())
        lengths = buffer["lengths"][:n]
        return {
            "downtime": buffer["downtime"],
            "absorbed": buffer["absorbed"],
            "counts": buffer["counts"],
            "lengths": lengths,
            "fix_codes": buffer["fix_codes"][:n],
            "origin_codes": buffer["origin_codes"][:n],
            "flat": buffer["data"][: int(lengths.sum())],
        }
