"""Tests for the fleet layer: knowledge, balancing, aggregation."""

import json
import math
import os

import numpy as np
import pytest

from repro.core.synopses.nearest_neighbor import NearestNeighborSynopsis
from repro.experiments.campaign import CampaignResult
from repro.faults.correlated import (
    build_correlated_schedule,
    per_service_queues,
)
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.fleet import (
    FleetLoadBalancer,
    SharedKnowledgeBase,
    aggregate_campaigns,
    run_fleet_campaign,
    weighted_mean,
)
from repro.healing.report import EpisodeReport
from repro.scenarios.corpus import fingerprint_fleet, fleet_payload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_large_fleet.json"
)


def _report(
    attempts: int = 1,
    escalated: bool = False,
    injected_at: int = 100,
    detected_at: int = 104,
    recovered_at: int | None = 140,
) -> EpisodeReport:
    report = EpisodeReport(
        event_id=0,
        fault_kinds=("deadlocked_threads",),
        fault_category="software",
        injected_at=injected_at,
        detected_at=detected_at,
        recovered_at=recovered_at,
        escalated=escalated,
    )
    report.applications = [None] * attempts  # only len() is consumed
    return report


class TestWeightedMean:
    def test_basic_weighting(self):
        assert weighted_mean([1.0, 3.0], [1.0, 3.0]) == pytest.approx(2.5)

    def test_empty_and_nan_shards_dropped(self):
        assert weighted_mean([2.0, float("nan")], [3.0, 5.0]) == 2.0
        assert weighted_mean([2.0, 9.0], [3.0, 0.0]) == 2.0

    def test_nothing_contributes_is_nan(self):
        assert math.isnan(weighted_mean([], []))
        assert math.isnan(weighted_mean([float("nan")], [4.0]))
        assert math.isnan(weighted_mean([1.0], [0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])


class TestAggregation:
    def test_pooled_equals_weighted_mean_of_shards(self):
        a = CampaignResult(
            reports=[_report(attempts=2), _report(attempts=4)], injected=2
        )
        b = CampaignResult(reports=[_report(attempts=6)], injected=2,
                           undetected=1)
        empty = CampaignResult()
        pooled = aggregate_campaigns([a, b, empty])
        assert pooled.injected == 4
        assert pooled.undetected == 1
        assert len(pooled.reports) == 3
        expected = weighted_mean(
            [r.mean_attempts for r in (a, b, empty)],
            [len(r.reports) for r in (a, b, empty)],
        )
        assert pooled.mean_attempts == pytest.approx(expected)
        assert pooled.mean_attempts == pytest.approx(4.0)

    def test_empty_fleet_statistics_are_nan_safe(self):
        pooled = aggregate_campaigns([CampaignResult(), CampaignResult()])
        assert pooled.mean_attempts == 0.0
        assert math.isnan(pooled.mean_detection_ticks())
        assert math.isnan(pooled.mean_recovery_ticks())


class TestSharedKnowledgeBase:
    def test_cursor_skips_own_and_already_seen(self):
        kb = SharedKnowledgeBase()
        kb.contribute(0, np.zeros(3), ALL_FIX_KINDS[0])
        kb.contribute(1, np.ones(3), ALL_FIX_KINDS[1])
        fresh, cursor = kb.updates_for(0, 0)
        assert [e.source for e in fresh] == [1]
        assert cursor == 2
        # Nothing new since the cursor.
        fresh, cursor = kb.updates_for(0, cursor)
        assert fresh == [] and cursor == 2
        # A later publication is visible to everyone but its source.
        kb.contribute(0, np.zeros(3), ALL_FIX_KINDS[2])
        fresh, _ = kb.updates_for(1, 2)
        assert [e.source for e in fresh] == [0]

    def test_disabled_base_records_nothing(self):
        kb = SharedKnowledgeBase(enabled=False)
        assert kb.contribute(0, np.zeros(3), ALL_FIX_KINDS[0]) is None
        assert kb.n_entries == 0
        assert kb.updates_for(1, 0) == ([], 0)


class TestSynopsisMerge:
    def test_merge_refits_once_and_transfers(self):
        donor = NearestNeighborSynopsis(ALL_FIX_KINDS)
        donor.add_success(np.asarray([1.0, 0.0]), ALL_FIX_KINDS[3])
        donor.add_success(np.asarray([0.0, 1.0]), ALL_FIX_KINDS[5])

        receiver = NearestNeighborSynopsis(ALL_FIX_KINDS)
        fits_before = receiver.fit_count
        merged = receiver.merge_samples(donor.export_samples())
        assert merged == 2
        assert receiver.n_samples == 2
        assert receiver.fit_count == fits_before + 1
        top_kind, _ = receiver.ranked_fixes(np.asarray([0.9, 0.1]))[0]
        assert top_kind == ALL_FIX_KINDS[3]

    def test_merge_rejects_unknown_kind(self):
        synopsis = NearestNeighborSynopsis(ALL_FIX_KINDS)
        with pytest.raises(ValueError):
            synopsis.merge_samples([(np.zeros(2), "not_a_fix")])

    def test_merge_empty_is_noop(self):
        synopsis = NearestNeighborSynopsis(ALL_FIX_KINDS)
        assert synopsis.merge_samples([]) == 0
        assert synopsis.fit_count == 0

    def test_bad_sample_mid_batch_leaves_synopsis_untouched(self):
        synopsis = NearestNeighborSynopsis(ALL_FIX_KINDS)
        synopsis.add_success(np.asarray([1.0, 0.0]), ALL_FIX_KINDS[0])
        with pytest.raises(ValueError):
            synopsis.merge_samples(
                [
                    (np.asarray([0.0, 1.0]), ALL_FIX_KINDS[1]),
                    (np.zeros(2), "not_a_fix"),
                ]
            )
        with pytest.raises(ValueError):
            synopsis.merge_samples(
                [
                    (np.asarray([0.0, 1.0]), ALL_FIX_KINDS[1]),
                    (np.zeros(5), ALL_FIX_KINDS[2]),  # width mismatch
                ]
            )
        assert synopsis.n_samples == 1  # nothing half-merged


class TestLoadBalancer:
    def test_healthy_fleet_keeps_unit_weights(self):
        balancer = FleetLoadBalancer(3)
        assert balancer.rebalance([0.0, 0.1, 0.2]) == [1.0, 1.0, 1.0]

    def test_degraded_replica_spills_to_survivors(self):
        balancer = FleetLoadBalancer(3, spill_fraction=0.6)
        targets = balancer.rebalance([0.9, 0.0, 0.0])
        assert targets[0] == pytest.approx(0.4)
        assert targets[1] == targets[2] == pytest.approx(1.3)
        # Conservation: total traffic share is unchanged.
        assert sum(targets) == pytest.approx(3.0)

    def test_fully_degraded_fleet_has_nowhere_to_spill(self):
        balancer = FleetLoadBalancer(2)
        assert balancer.rebalance([0.9, 0.9]) == [1.0, 1.0]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FleetLoadBalancer(2).rebalance([0.0])


class TestCorrelatedSchedule:
    def test_deterministic_given_seed(self):
        a = build_correlated_schedule(3, 6, seed=11)
        b = build_correlated_schedule(3, 6, seed=11)
        assert [s.pattern for s in a] == [s.pattern for s in b]
        assert [s.kinds for s in a] == [s.kinds for s in b]

    def test_correlated_slots_share_one_kind(self):
        schedule = build_correlated_schedule(
            4, 10, seed=3, p_correlated=1.0, p_cascade=0.0
        )
        for strike in schedule:
            assert strike.pattern == "correlated"
            assert len(set(strike.kinds)) == 1
            assert strike.struck == (0, 1, 2, 3)

    def test_cascade_victim_and_survivor_surges(self):
        schedule = build_correlated_schedule(
            3, 5, seed=3, p_correlated=0.0, p_cascade=1.0
        )
        for strike in schedule:
            assert strike.pattern == "cascade"
            kinds = [fault.kind for fault in strike.faults.values()]
            assert kinds.count("tier_capacity_loss") == 1
            assert kinds.count("load_surge") == 2

    def test_queue_transposition_stays_slot_aligned(self):
        schedule = build_correlated_schedule(2, 4, seed=5)
        queues = per_service_queues(schedule, 2)
        assert len(queues) == 2
        assert all(len(queue) == 4 for queue in queues)
        for slot, strike in enumerate(schedule):
            for i in range(2):
                assert queues[i][slot] is strike.faults.get(i)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            build_correlated_schedule(2, 2, seed=0, p_correlated=0.9,
                                      p_cascade=0.3)
        # Negative probabilities must not slip through the sum check.
        with pytest.raises(ValueError):
            build_correlated_schedule(2, 2, seed=0, p_correlated=0.5,
                                      p_cascade=-0.2)


class TestFleetCampaign:
    def test_same_seed_same_aggregates(self):
        a = run_fleet_campaign(n_services=2, episodes_per_service=2, seed=17)
        b = run_fleet_campaign(n_services=2, episodes_per_service=2, seed=17)
        assert a.total_reports == b.total_reports
        assert a.injected == b.injected
        assert a.undetected == b.undetected
        assert a.mean_attempts == b.mean_attempts
        assert a.escalation_rate == b.escalation_rate
        assert a.knowledge_entries == b.knowledge_entries

    def test_worker_count_does_not_change_results(self):
        serial = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23, workers=1
        )
        sharded = run_fleet_campaign(
            n_services=2, episodes_per_service=2, seed=23, workers=2
        )
        assert serial.total_reports == sharded.total_reports
        assert serial.mean_attempts == sharded.mean_attempts
        assert serial.escalation_rate == sharded.escalation_rate
        assert serial.mean_detection_ticks() == pytest.approx(
            sharded.mean_detection_ticks()
        )
        assert serial.knowledge_entries == sharded.knowledge_entries
        assert serial.knowledge_absorbed == sharded.knowledge_absorbed

    def test_multi_slot_rounds_match_across_workers(self):
        """episodes_per_round > 1 batches slots between barriers; the
        double-buffered transport must stay equivalent to serial."""
        serial = run_fleet_campaign(
            n_services=3,
            episodes_per_service=4,
            seed=7,
            workers=1,
            episodes_per_round=2,
        )
        sharded = run_fleet_campaign(
            n_services=3,
            episodes_per_service=4,
            seed=7,
            workers=2,
            episodes_per_round=2,
        )
        assert serial.total_reports == sharded.total_reports
        assert serial.mean_attempts == sharded.mean_attempts
        assert serial.mean_detection_ticks() == sharded.mean_detection_ticks()
        assert serial.knowledge_entries == sharded.knowledge_entries
        assert serial.knowledge_absorbed == sharded.knowledge_absorbed

    def test_sharded_sharing_ablation_matches_serial(self):
        serial = run_fleet_campaign(
            n_services=2,
            episodes_per_service=2,
            seed=29,
            workers=1,
            share_knowledge=False,
        )
        sharded = run_fleet_campaign(
            n_services=2,
            episodes_per_service=2,
            seed=29,
            workers=2,
            share_knowledge=False,
        )
        assert sharded.knowledge_entries == 0
        assert sharded.knowledge_absorbed == 0
        assert serial.total_reports == sharded.total_reports
        assert serial.mean_attempts == sharded.mean_attempts

    def test_profile_dir_collects_worker_dumps(self, tmp_path):
        import os

        run_fleet_campaign(
            n_services=2,
            episodes_per_service=1,
            seed=2,
            workers=2,
            profile_dir=str(tmp_path),
        )
        dumps = sorted(os.listdir(tmp_path))
        assert dumps == ["fleet-worker-0.prof", "fleet-worker-1.prof"]
        import pstats

        stats = pstats.Stats(str(tmp_path / dumps[0]))
        stats.add(str(tmp_path / dumps[1]))
        assert stats.total_calls > 0

    def test_sharing_ablation_disables_exchange(self):
        isolated = run_fleet_campaign(
            n_services=2,
            episodes_per_service=1,
            seed=29,
            share_knowledge=False,
        )
        assert isolated.knowledge_entries == 0
        assert isolated.knowledge_absorbed == 0

    def test_zero_services_rejected(self):
        with pytest.raises(ValueError, match="n_services must be >= 1"):
            run_fleet_campaign(n_services=0)

    def test_zero_episode_fleet_is_nan_safe(self):
        result = run_fleet_campaign(
            n_services=2, episodes_per_service=0, seed=1
        )
        assert result.total_reports == 0
        assert math.isnan(result.escalation_rate)
        assert math.isnan(result.mean_detection_ticks())

    def test_cli_fleet_smoke(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fleet",
                    "--services",
                    "1",
                    "--episodes",
                    "1",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fleet campaign: 1 services" in out
        assert "knowledge:" in out


@pytest.mark.skipif(
    not os.path.exists(GOLDEN_PATH), reason="large-fleet golden missing"
)
class TestLargeFleetGolden:
    def test_replays_bit_exactly(self):
        """The committed 256-service campaign replays byte-identically.

        ``python -m benchmarks.perf --write-golden PATH`` regenerates
        the golden; CI replays it with ``--check-equivalence --golden``.
        """
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        result = run_fleet_campaign(
            n_services=golden["n_services"],
            episodes_per_service=golden["episodes_per_service"],
            seed=golden["seed"],
            workers=1,
        )
        assert fingerprint_fleet(result) == golden["fingerprint"]
        assert fleet_payload(result) == golden["payload"]
