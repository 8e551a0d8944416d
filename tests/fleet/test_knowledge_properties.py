"""Property tests for the fleet knowledge base and its replicas.

The sharded fleet runner keeps a replica of the coordinator's
knowledge base in every worker: each round message carries, pickled,
the entries merged since the previous one, and members absorb from
the replica.  A single off-by-one in the cursor arithmetic, or a bit
lost on the way, would silently corrupt knowledge exchange (and with
it, the bit-exactness contract).  Hypothesis drives the edge cases:
mixed-length vectors, zero-length vectors, empty rounds, and special
float values (NaN/inf travel verbatim — comparisons are on raw
bytes).

Windowed absorption is pinned here too: any non-decreasing watermark
schedule absorbs every entry exactly once.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.campaign import _replicate
from repro.fleet.knowledge import SharedKnowledgeBase

# Mixed-length batches, including zero-length vectors and empty
# batches, with the full float64 value range (nan, inf, subnormals).
_vector = st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True),
    min_size=0,
    max_size=7,
).map(lambda xs: np.asarray(xs, dtype=np.float64))

_FIX_KINDS = ("fix_a", "fix_b", "fix_c")
_READERS = range(4)

# One (source, fix-kind index, origin, symptoms) contribution at a
# time, grouped into rounds.
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


def _key(entry) -> tuple:
    return (
        entry.seq,
        entry.source,
        entry.fix_kind,
        entry.origin,
        entry.symptoms.tobytes(),
    )


class TestReplica:
    @settings(max_examples=30, deadline=None)
    @given(_rounds)
    def test_replica_fed_broadcasts_matches_coordinator(self, rounds):
        """A replica fed each round's pickled broadcast gives every
        reader the coordinator's ``updates_window`` entries, bit for
        bit — the worker-vs-serial absorption equivalence in
        miniature, including empty rounds."""
        base = SharedKnowledgeBase()
        replica = SharedKnowledgeBase()
        sent = 0
        base_cursors = dict.fromkeys(_READERS, 0)
        replica_cursors = dict.fromkeys(_READERS, 0)
        # One dispatch before each round and one after the last.
        for contributions in [*rounds, []]:
            # Reader -1 is no replica: the broadcast is every entry
            # merged since the previous dispatch.
            entries, sent = base.updates_window(-1, sent, base.n_entries)
            _replicate(
                replica, pickle.loads(pickle.dumps(entries)), base.n_entries
            )
            for reader in _READERS:
                want, base_cursors[reader] = base.updates_window(
                    reader, base_cursors[reader], base.n_entries
                )
                got, replica_cursors[reader] = replica.updates_window(
                    reader, replica_cursors[reader], replica.n_entries
                )
                assert [_key(e) for e in got] == [_key(e) for e in want]
            for source, k, origin, vector in contributions:
                base.contribute(source, vector, _FIX_KINDS[k], origin)
        assert replica.n_entries == base.n_entries
        assert replica.data_bytes == base.data_bytes

    def test_short_broadcast_is_loud(self):
        base = SharedKnowledgeBase()
        base.contribute(0, np.ones(2), "fix_a")
        entries, _ = base.updates_window(-1, 0, base.n_entries)
        with pytest.raises(RuntimeError, match="replica holds 1 entries"):
            _replicate(SharedKnowledgeBase(), entries, 2)


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
        yield exactly the entries a single full-log sweep yields
        — each published entry absorbed exactly once, in log order."""
        base = SharedKnowledgeBase()
        for contributions in rounds:
            for source, value in contributions:
                base.contribute(
                    source, np.asarray([value]), "restart_component"
                )
        total = base.n_entries
        reference, ref_cursor = base.updates_window(
            reader, 0, base.n_entries
        )
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
