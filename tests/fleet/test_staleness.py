"""Property + integration tests for bounded-staleness exchange.

The staleness executor's correctness rests on three small invariants:
the dispatch ring never rewrites a record the worker hasn't read, the
output ring never rewrites a round the coordinator hasn't stashed, and
windowed absorption conserves entries no matter how the watermarks are
staggered.  Hypothesis pins each invariant in isolation; the
integration tests then check the campaign-level contract — the
default ``K = 0`` is the round barrier with a zero-lag ledger in both
runners, and ``K > 0`` stays inside its observed-lag budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.campaign import (
    _normalize_staleness,
    format_fleet,
    run_fleet_campaign,
)
from repro.fleet.knowledge import SharedKnowledgeBase
from repro.fleet.transport import (
    UNBOUNDED_RING_SLOTS,
    StalenessControlSegment,
    WorkerOutSegment,
    ring_slots_for,
)
from repro.scenarios.corpus import _canonical_target


class TestRingSizing:
    @given(st.integers(min_value=0, max_value=512))
    def test_finite_budget_gets_k_plus_two_slots(self, budget):
        slots = ring_slots_for(budget)
        assert slots == max(2, budget + 2)
        # K + 1 rounds can be in flight (F .. F + K); one slack slot.
        assert slots >= budget + 1

    def test_unbounded_budget_gets_fixed_depth(self):
        assert ring_slots_for(float("inf")) == UNBOUNDED_RING_SLOTS
        assert UNBOUNDED_RING_SLOTS >= 2


class TestNormalizeStaleness:
    def test_accepted_values(self):
        assert _normalize_staleness(0) == 0
        assert _normalize_staleness(3) == 3
        assert _normalize_staleness(3.0) == 3
        assert _normalize_staleness(float("inf")) == float("inf")

    @pytest.mark.parametrize(
        "bad", [None, -1, -0.5, 1.5, float("nan"), float("-inf"), "two"]
    )
    def test_rejected_values(self, bad):
        with pytest.raises(ValueError):
            _normalize_staleness(bad)


class TestStalenessControlSegment:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=12),
    )
    def test_dispatch_roundtrip_through_attach(
        self, n_slots, n_services, n_rounds
    ):
        """Every dispatch read back (through a second attachment, the
        worker's view) must return exactly the published record, with
        watermarks non-decreasing the way the coordinator issues them."""
        owner = StalenessControlSegment(n_slots, n_services)
        try:
            worker = StalenessControlSegment.attach(
                owner.name, n_slots, n_services
            )
            try:
                last_mark = -1
                for r in range(n_rounds):
                    mark, frontier = 3 * r, max(0, r - 1)
                    targets = np.full(n_services, 1.0 + r)
                    owner.publish_dispatch(r, mark, frontier, targets)
                    got_mark, got_frontier, got_targets = (
                        worker.read_dispatch(r)
                    )
                    assert got_mark == mark
                    assert got_frontier == frontier
                    assert got_targets.tobytes() == targets.tobytes()
                    assert got_mark >= last_mark
                    last_mark = got_mark
            finally:
                worker.close()
        finally:
            owner.close()
            owner.unlink()

    def test_stale_slot_read_is_loud(self):
        control = StalenessControlSegment(2, 1)
        try:
            control.publish_dispatch(0, 0, 0, [1.0])
            # Round 2 reuses slot 0; reading it as round 2 before the
            # coordinator publishes round 2 is a discipline violation.
            with pytest.raises(RuntimeError, match="ring discipline"):
                control.read_dispatch(2)
        finally:
            control.close()
            control.unlink()

    def test_abort_flag_crosses_attachment(self):
        owner = StalenessControlSegment(2, 1)
        try:
            worker = StalenessControlSegment.attach(owner.name, 2, 1)
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


class TestWorkerOutRing:
    def test_fewer_than_two_slots_rejected(self):
        with pytest.raises(ValueError, match=">= 2 slots"):
            WorkerOutSegment(1, 4, 8, n_slots=1)

    def test_overwrite_guard_and_consume_release(self):
        out = WorkerOutSegment(1, 4, 8, n_slots=2)
        try:
            _write_round(out, 0)
            _write_round(out, 1)
            # Round 2 would reuse round 0's slot, still unconsumed.
            with pytest.raises(RuntimeError, match="output ring overwrite"):
                _write_round(out, 2)
            out.mark_consumed(0)
            _write_round(out, 2)
            assert out.rounds_completed == 3
            assert out.consumed == 1
        finally:
            out.close()
            out.unlink()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=16
        ),
    )
    def test_slot_reuse_never_clobbers_unconsumed_rounds(
        self, n_slots, lag_schedule
    ):
        """Writer runs ahead, coordinator consumes with an arbitrary
        (bounded) lag: every round read before being consumed must
        still hold exactly the payload written for it."""
        out = WorkerOutSegment(1, 4, 8, n_slots=n_slots)
        try:
            written = consumed = 0
            for lag in lag_schedule:
                # Write as far ahead as the chosen lag (capped by the
                # ring window) allows.
                target = consumed + min(lag, n_slots - 1)
                while written <= target:
                    _write_round(out, written)
                    written += 1
                # Stash-and-consume the oldest outstanding round.
                if consumed < written:
                    view = out.read_round(consumed)
                    assert view["downtime"][0] == float(consumed)
                    assert view["flat"].tobytes() == np.full(
                        2, float(consumed)
                    ).tobytes()
                    assert int(view["fix_codes"][0]) == consumed
                    out.mark_consumed(consumed)
                    consumed += 1
            while consumed < written:
                view = out.read_round(consumed)
                assert view["downtime"][0] == float(consumed)
                out.mark_consumed(consumed)
                consumed += 1
            # Views alias the shared buffer; drop them before close
            # or the mmap teardown trips over exported pointers.
            del view
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


def _canonical_fixes(result) -> list[tuple]:
    """Per-episode healing outcomes with process-counter-free targets.

    ``hung-<N>`` transaction ids come from a process-wide counter, so
    two in-process runs of the same seed differ in the raw target
    strings; the corpus canonicalization rule makes them comparable.
    """
    out = []
    for campaign in result.per_service:
        for report in campaign.reports:
            out.append(
                (
                    report.injected_at,
                    report.detected_at,
                    report.recovered_at,
                    report.successful_fix,
                    tuple(
                        (
                            app.kind,
                            _canonical_target(app.target)
                            if app.target
                            else None,
                            ok,
                        )
                        for app, ok in zip(
                            report.applications, report.outcomes
                        )
                    ),
                )
            )
    return out


class TestSerialDelayed:
    def test_k0_matches_classic_barrier_exactly(self):
        """The default run *is* K=0: a zero-lag serial-delayed ledger
        over the round barrier's statistics."""
        default = run_fleet_campaign(
            n_services=2, episodes_per_service=3, seed=17
        )
        # What the deleted barrier executor produced for this shape.
        assert (
            default.knowledge_entries,
            default.knowledge_absorbed,
            default.total_reports,
            default.injected,
            default.undetected,
            default.pooled.total_ticks,
        ) == (4, 3, 4, 6, 2, 2199)
        assert default.staleness_rounds == 0
        ledger = default.transport["staleness"]
        assert ledger["mode"] == "serial-delayed"
        assert ledger["rounds"] == 0
        assert ledger["lag_max"] == 0
        assert ledger["round_lag"] == [0] * default.transport["rounds"]
        assert "staleness=" not in format_fleet(default)

    def test_finite_budget_lags_by_min_of_round_and_k(self):
        result = run_fleet_campaign(
            n_services=2, episodes_per_service=4, seed=17,
            staleness_rounds=1,
        )
        ledger = result.transport["staleness"]
        lags = ledger["round_lag"]
        assert lags == [min(r, 1) for r in range(len(lags))]
        assert ledger["lag_max"] == 1
        assert "staleness=1" in format_fleet(result)

    def test_unbounded_budget_never_absorbs(self):
        shared = run_fleet_campaign(
            n_services=2, episodes_per_service=3, seed=17
        )
        isolated = run_fleet_campaign(
            n_services=2, episodes_per_service=3, seed=17,
            staleness_rounds=float("inf"),
        )
        assert isolated.knowledge_absorbed == 0
        assert isolated.staleness_rounds == float("inf")
        ledger = isolated.transport["staleness"]
        assert ledger["rounds"] == "inf"
        assert ledger["round_lag"] == list(range(len(ledger["round_lag"])))
        # The log itself still fills: publication is not delayed.
        assert isolated.knowledge_entries == shared.knowledge_entries

    def test_staleness_event_emitted_only_when_lagging(self, tmp_path):
        import json

        lagging = tmp_path / "lag.jsonl"
        run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=17,
            staleness_rounds=2, events_path=str(lagging),
        )
        events = [
            json.loads(line)
            for line in lagging.read_text().splitlines()
        ]
        stale = [e for e in events if e.get("type") == "fleet_staleness"]
        assert len(stale) == 1
        assert stale[0]["rounds"] == 2
        assert stale[0]["lag_max"] >= 1

        exact = tmp_path / "k0.jsonl"
        run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=17,
            staleness_rounds=0, events_path=str(exact),
        )
        k0_events = [
            json.loads(line)
            for line in exact.read_text().splitlines()
        ]
        assert not [
            e for e in k0_events if e.get("type") == "fleet_staleness"
        ]


class TestShardedAsync:
    def test_k0_matches_serial_exactly(self):
        serial = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23,
            staleness_rounds=0,
        )
        sharded = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23, workers=2,
            staleness_rounds=0,
        )
        assert _canonical_fixes(serial) == _canonical_fixes(sharded)
        assert serial.knowledge_entries == sharded.knowledge_entries
        assert serial.knowledge_absorbed == sharded.knowledge_absorbed
        ledger = sharded.transport["staleness"]
        assert ledger["mode"] == "sharded-async"
        assert ledger["lag_max"] == 0
        assert ledger["ring_slots"] == ring_slots_for(0)

    def test_positive_budget_stays_within_lag_bound(self):
        result = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23, workers=2,
            staleness_rounds=2,
        )
        ledger = result.transport["staleness"]
        assert ledger["lag_max"] <= 2
        assert ledger["ring_slots"] == ring_slots_for(2)
        # Same faults were injected and every round ran.
        assert result.total_reports > 0
        for lags in ledger["round_lag"].values():
            assert len(lags) == 2  # episodes_per_service rounds each

    def test_unbounded_budget_completes(self):
        result = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23, workers=2,
            staleness_rounds=float("inf"),
        )
        ledger = result.transport["staleness"]
        assert ledger["ring_slots"] == UNBOUNDED_RING_SLOTS
        assert result.staleness_rounds == float("inf")
        assert result.total_reports > 0


class TestTrackSlo:
    def test_sharded_multi_service_tracking_rejected(self):
        with pytest.raises(ValueError, match="track_slo"):
            run_fleet_campaign(
                n_services=2, episodes_per_service=1, seed=1,
                workers=2, track_slo=True,
            )

    def test_serial_tracking_grades_post_heal_window(self):
        tracked = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=17,
            track_slo=True,
        )
        assert isinstance(tracked.slo_breaches_after_heal, int)
        assert tracked.slo_breaches_after_heal >= 0
        untracked = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=17,
        )
        assert untracked.slo_breaches_after_heal is None
        # Tracking is observational: the healing outcomes are
        # untouched.
        assert _canonical_fixes(tracked) == _canonical_fixes(untracked)

    def test_member_grading_requires_tracking(self):
        from repro.fleet.member import FleetMember

        member = FleetMember(index=0, seed=5)
        with pytest.raises(RuntimeError, match="track_slo"):
            member.slo_breach_after_heal(10)


class TestCliStaleness:
    def test_fleet_staleness_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fleet",
                    "--services", "1",
                    "--episodes", "1",
                    "--seed", "2",
                    "--staleness", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "staleness=1" in out

    def test_fleet_staleness_inf_alias(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fleet",
                    "--services", "1",
                    "--episodes", "1",
                    "--seed", "2",
                    "--staleness", "inf",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "staleness=inf" in out

    def test_bad_staleness_is_input_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fleet",
                    "--services", "1",
                    "--episodes", "1",
                    "--staleness", "nope",
                ]
            )
            == 2
        )
