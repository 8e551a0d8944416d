"""Property tests for the shared-memory fleet transport.

The ragged pack↔unpack path is the wire format every symptom vector
crosses on its way between fleet workers and the coordinator; a single
off-by-one in the offset arithmetic would silently corrupt knowledge
exchange (and with it, the bit-exactness contract).  Hypothesis drives
the edge cases the stacking trick has to survive: mixed-length
vectors, zero-length vectors, empty rounds, and special float values
(NaN/inf travel verbatim — comparisons are on raw bytes).

The round barrier's own guards are pinned here too: a worker reading
a dispatch record that does not hold its round, and a worker
overwriting an output block the coordinator has not consumed, both
fail loudly; windowed absorption conserves entries for any watermark
schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.campaign import _entries_from_log
from repro.fleet.knowledge import SharedKnowledgeBase
from repro.fleet.transport import (
    ControlSegment,
    KnowledgeLogSegment,
    Vocab,
    WorkerOutSegment,
    pack_ragged,
    unpack_ragged,
)

# Mixed-length batches, including zero-length vectors and empty
# batches, with the full float64 value range (nan, inf, subnormals).
_vector = st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True),
    min_size=0,
    max_size=7,
).map(lambda xs: np.asarray(xs, dtype=np.float64))
_batch = st.lists(_vector, min_size=0, max_size=6)

_FIX_KINDS = ("fix_a", "fix_b", "fix_c")
_VOCAB = Vocab((*_FIX_KINDS, "healed", "admin"))


def _bits(vectors: list[np.ndarray]) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in vectors]


class TestPackRagged:
    @given(_batch)
    def test_round_trip_is_bit_exact(self, vectors):
        flat, lengths = pack_ragged(vectors)
        assert len(lengths) == len(vectors)
        assert int(lengths.sum()) == len(flat)
        out = unpack_ragged(flat, lengths)
        assert _bits(out) == _bits(vectors)

    def test_empty_round(self):
        flat, lengths = pack_ragged([])
        assert len(flat) == 0 and len(lengths) == 0
        assert unpack_ragged(flat, lengths) == []

    def test_length_mismatch_rejected(self):
        flat, lengths = pack_ragged([np.ones(3), np.ones(2)])
        try:
            unpack_ragged(flat[:-1], lengths)
        except ValueError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("short flat buffer must be rejected")


# One (source, fix-kind index, symptoms) contribution at a time; the
# log test replays them through both the shared-memory segment and the
# host knowledge base and requires identical materialized entries.
_contribution = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=len(_FIX_KINDS) - 1),
    st.sampled_from(("healed", "admin")),
    _vector,
)
_rounds = st.lists(
    st.lists(_contribution, min_size=0, max_size=4),
    min_size=0,
    max_size=4,
)


class TestKnowledgeLogSegment:
    @settings(max_examples=30, deadline=None)
    @given(_rounds, st.integers(min_value=0, max_value=3))
    def test_log_matches_host_base(self, rounds, reader):
        """Appending round batches to the shm log and to the host
        knowledge base must materialize identical foreign entries for
        any reader replica — the worker-vs-serial absorption
        equivalence in miniature, including empty rounds."""
        total = sum(len(r) for r in rounds)
        data_cap = max(
            1, sum(len(v) for r in rounds for (_, _, _, v) in r)
        )
        log = KnowledgeLogSegment(max(total, 1), data_cap)
        base = SharedKnowledgeBase()
        try:
            for contributions in rounds:
                flat, lengths = pack_ragged(
                    [v for (_, _, _, v) in contributions]
                )
                sources = np.asarray(
                    [s for (s, _, _, _) in contributions],
                    dtype=np.int64,
                )
                fix_codes = np.asarray(
                    [
                        _VOCAB.encode(_FIX_KINDS[k])
                        for (_, k, _, _) in contributions
                    ],
                    dtype=np.int64,
                )
                origin_codes = np.asarray(
                    [
                        _VOCAB.encode(origin)
                        for (_, _, origin, _) in contributions
                    ],
                    dtype=np.int64,
                )
                log.append_batch(
                    flat, lengths, sources, fix_codes, origin_codes
                )
                base.contribute_batch(
                    flat,
                    lengths,
                    sources,
                    [_FIX_KINDS[k] for (_, k, _, _) in contributions],
                    [origin for (_, _, origin, _) in contributions],
                )
            assert log.published == base.n_entries == total

            from_log = _entries_from_log(
                log, 0, log.published, reader, _VOCAB
            )
            from_base, cursor = base.updates_for(reader, 0)
            assert cursor == total
            assert len(from_log) == len(from_base)
            for a, b in zip(from_log, from_base):
                assert a.seq == b.seq
                assert a.source == b.source
                assert a.fix_kind == b.fix_kind
                assert a.origin == b.origin
                assert a.symptoms.tobytes() == b.symptoms.tobytes()
        finally:
            log.close()
            log.unlink()

    def test_overflow_is_loud(self):
        log = KnowledgeLogSegment(1, 4)
        try:
            flat, lengths = pack_ragged([np.ones(2), np.ones(2)])
            try:
                log.append_batch(
                    flat,
                    lengths,
                    np.zeros(2, dtype=np.int64),
                    np.zeros(2, dtype=np.int64),
                    np.zeros(2, dtype=np.int64),
                )
            except RuntimeError as exc:
                assert "overflow" in str(exc)
            else:  # pragma: no cover - failure path
                raise AssertionError("overflow must raise")
        finally:
            log.close()
            log.unlink()


class TestSharedKnowledgeBaseBatch:
    @settings(max_examples=30, deadline=None)
    @given(_rounds)
    def test_batch_equals_sequential_contribute(self, rounds):
        """One vectorized batch append must record exactly what the
        per-entry contribute path records (mixed lengths included)."""
        batched = SharedKnowledgeBase()
        sequential = SharedKnowledgeBase()
        for contributions in rounds:
            flat, lengths = pack_ragged(
                [v for (_, _, _, v) in contributions]
            )
            batched.contribute_batch(
                flat,
                lengths,
                np.asarray(
                    [s for (s, _, _, _) in contributions],
                    dtype=np.int64,
                ),
                [_FIX_KINDS[k] for (_, k, _, _) in contributions],
                [origin for (_, _, origin, _) in contributions],
            )
            for source, k, origin, vector in contributions:
                sequential.contribute(
                    source, vector, _FIX_KINDS[k], origin
                )
        assert batched.n_entries == sequential.n_entries
        assert batched.by_source() == sequential.by_source()
        for a, b in zip(batched.entries, sequential.entries):
            assert (a.seq, a.source, a.fix_kind, a.origin) == (
                b.seq,
                b.source,
                b.fix_kind,
                b.origin,
            )
            assert a.symptoms.tobytes() == b.symptoms.tobytes()


class TestControlSegment:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=12),
    )
    def test_dispatch_roundtrip_through_attach(self, n_services, n_rounds):
        """Every dispatch read back (through a second attachment, the
        worker's view) must return exactly the published record, with
        watermarks non-decreasing the way the coordinator issues them."""
        owner = ControlSegment(n_services)
        try:
            worker = ControlSegment.attach(owner.name, n_services)
            try:
                last_mark = -1
                for r in range(n_rounds):
                    mark = 3 * r
                    targets = np.full(n_services, 1.0 + r)
                    owner.publish(r, mark, targets)
                    got_mark, got_targets = worker.read_round(r)
                    assert got_mark == mark
                    assert got_targets.tobytes() == targets.tobytes()
                    assert got_mark >= last_mark
                    last_mark = got_mark
            finally:
                worker.close()
        finally:
            owner.close()
            owner.unlink()

    def test_stale_read_is_loud(self):
        control = ControlSegment(1)
        try:
            control.publish(0, 0, [1.0])
            # Reading round 1 before the coordinator publishes it
            # would hand the worker round 0's watermark and targets.
            with pytest.raises(RuntimeError, match="dispatch discipline"):
                control.read_round(1)
        finally:
            control.close()
            control.unlink()

    def test_abort_flag_crosses_attachment(self):
        owner = ControlSegment(1)
        try:
            worker = ControlSegment.attach(owner.name, 1)
            try:
                assert not worker.aborted()
                owner.abort()
                assert worker.aborted()
            finally:
                worker.close()
        finally:
            owner.close()
            owner.unlink()


def _write_round(out: WorkerOutSegment, round_index: int) -> None:
    """One synthetic round whose payload is a function of its index."""
    flat = np.full(2, float(round_index), dtype=np.float64)
    lengths = np.asarray([2], dtype=np.int64)
    out.write_round(
        round_index,
        [float(round_index)],
        [round_index],
        [1],
        flat,
        lengths,
        np.asarray([round_index], dtype=np.int64),
        np.asarray([0], dtype=np.int64),
    )


class TestWorkerOutSegment:
    def test_overwrite_guard_and_consume_release(self):
        out = WorkerOutSegment(1, 4, 8)
        try:
            _write_round(out, 0)
            # Round 1 would replace round 0, still unconsumed.
            with pytest.raises(RuntimeError, match="output block overwrite"):
                _write_round(out, 1)
            out.mark_consumed(0)
            _write_round(out, 1)
            assert out.rounds_completed == 2
            assert out.consumed == 1
            view = out.read_round(1)
            assert view["flat"].tobytes() == np.full(2, 1.0).tobytes()
            # Views alias the shared buffer; drop them before close.
            del view
            with pytest.raises(RuntimeError, match="holds round 1"):
                out.read_round(0)
        finally:
            out.close()
            out.unlink()


# Per-round foreign contributions: (source, symptom value) pairs.
_round_contribs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    min_size=0,
    max_size=3,
)


class TestUpdatesWindow:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_round_contribs, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_staggered_absorption_conserves_entries(
        self, rounds, reader, data
    ):
        """Absorbing through any non-decreasing watermark schedule must
        yield exactly the entries a single ``updates_for`` sweep yields
        — each published entry absorbed exactly once, in log order."""
        base = SharedKnowledgeBase()
        for contributions in rounds:
            for source, value in contributions:
                base.contribute(
                    source, np.asarray([value]), "restart_component"
                )
        total = base.n_entries
        reference, ref_cursor = base.updates_for(reader, 0)
        assert ref_cursor == total

        # A random staggered schedule, always ending at the full log.
        marks = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=total),
                    min_size=1,
                    max_size=6,
                )
            )
        ) + [total]
        absorbed = []
        cursor = 0
        for mark in marks:
            fresh, cursor = base.updates_window(reader, cursor, mark)
            absorbed.extend(fresh)
            assert cursor == min(mark, total)
        assert [e.seq for e in absorbed] == [e.seq for e in reference]
        assert all(e.source != reader for e in absorbed)

    def test_backwards_watermark_is_loud(self):
        base = SharedKnowledgeBase()
        for _ in range(3):
            base.contribute(0, np.asarray([1.0]), "restart_component")
        _, cursor = base.updates_window(1, 0, 2)
        with pytest.raises(ValueError, match="cannot move backwards"):
            base.updates_window(1, cursor, 1)

    def test_watermark_clamped_to_published(self):
        base = SharedKnowledgeBase()
        base.contribute(0, np.asarray([1.0]), "restart_component")
        fresh, cursor = base.updates_window(1, 0, 99)
        assert len(fresh) == 1 and cursor == 1
