"""Tests for the five Table 2 approaches plus the combined one."""

import numpy as np
import pytest

from repro.core.approaches.anomaly import AnomalyDetectionApproach
from repro.core.approaches.bottleneck import BottleneckAnalysisApproach
from repro.core.approaches.combined import CombinedApproach
from repro.core.approaches.correlation import CorrelationAnalysisApproach
from repro.core.approaches.manual import ManualRuleBased, Rule
from repro.core.approaches.signature import SignatureApproach
from repro.core.confidence import merge_recommendations
from repro.core.synopses import NaiveBayesSynopsis, NearestNeighborSynopsis
from repro.core.types import Recommendation
from repro.faults.app_faults import DeadlockedThreadsFault, SoftwareAgingFault
from repro.faults.db_faults import StaleStatisticsFault, TableContentionFault
from repro.faults.infra_faults import NetworkFault, TierCapacityLossFault
from repro.fixes.catalog import ALL_FIX_KINDS
from tests.helpers import capture_event


class TestManualRules:
    def test_catch_all_restart_always_fires(self):
        _, _, _, event = capture_event(DeadlockedThreadsFault("ItemBean"))
        recommendations = ManualRuleBased().recommend(event)
        kinds = [r.fix_kind for r in recommendations]
        assert "restart_service" in kinds

    def test_heap_rule_matches_aging(self):
        _, _, _, event = capture_event(SoftwareAgingFault(30.0))
        top = ManualRuleBased().recommend(event)[0]
        assert top.fix_kind == "reboot_tier"
        assert top.target == "app"

    def test_no_rule_for_stale_statistics(self):
        """The paper's incompleteness critique, verified."""
        _, _, _, event = capture_event(StaleStatisticsFault())
        top = ManualRuleBased().recommend(event)[0]
        assert top.fix_kind != "update_statistics"

    def test_exclusion_respected(self):
        _, _, _, event = capture_event(SoftwareAgingFault(30.0))
        recommendations = ManualRuleBased().recommend(
            event, exclude={"reboot_tier"}
        )
        assert all(r.fix_kind != "reboot_tier" for r in recommendations)

    def test_custom_rules(self):
        _, _, _, event = capture_event(NetworkFault())
        rules = [Rule("net", lambda e: True, "failover_network")]
        top = ManualRuleBased(rules).recommend(event)[0]
        assert top.fix_kind == "failover_network"


class TestAnomalyDetection:
    def test_localizes_wedged_bean(self):
        _, _, _, event = capture_event(DeadlockedThreadsFault("ItemBean"))
        recommendations = AnomalyDetectionApproach().recommend(event)
        microreboots = [
            r for r in recommendations if r.fix_kind == "microreboot_ejb"
        ]
        assert microreboots
        assert microreboots[0].target == "ItemBean"

    def test_works_without_invasive_data_but_loses_ejb_precision(self):
        _, _, _, event = capture_event(
            DeadlockedThreadsFault("ItemBean"), include_invasive=False
        )
        recommendations = AnomalyDetectionApproach().recommend(event)
        # Metric-level anomalies still produce suggestions...
        assert recommendations
        # ...but none can name the wedged bean.
        assert all(r.target != "ItemBean" for r in recommendations)

    def test_network_fault_flagged(self):
        _, _, _, event = capture_event(NetworkFault())
        kinds = [r.fix_kind for r in AnomalyDetectionApproach().recommend(event)]
        assert "failover_network" in kinds


class TestCorrelation:
    def test_needs_training_records(self):
        _, _, _, event = capture_event(TableContentionFault("items"))
        approach = CorrelationAnalysisApproach()
        assert approach.recommend(event) == []  # archive empty

    def test_finds_correlated_fix_with_archive(self):
        approach = CorrelationAnalysisApproach()
        service, injector, harness, event = capture_event(
            TableContentionFault("items")
        )
        # Feed history: healthy window plus the failure window.
        rows = harness.store.window(len(harness.store))
        n_healthy = len(rows) - 10
        for i, row in enumerate(rows):
            approach.observe_tick(row, violated=i >= n_healthy)
        kinds = [r.fix_kind for r in approach.recommend(event)]
        assert "repartition_table" in kinds

    def test_bayesnet_method(self):
        approach = CorrelationAnalysisApproach(method="bayesnet")
        service, injector, harness, event = capture_event(
            NetworkFault()
        )
        rows = harness.store.window(len(harness.store))
        n_healthy = len(rows) - 10
        for i, row in enumerate(rows):
            approach.observe_tick(row, violated=i >= n_healthy)
        recommendations = approach.recommend(event)
        assert recommendations  # produces ranked output

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            CorrelationAnalysisApproach(method="tarot")


class TestBottleneck:
    def test_diagnoses_capacity_loss(self):
        _, _, _, event = capture_event(TierCapacityLossFault("app"))
        top = BottleneckAnalysisApproach().recommend(event)[0]
        assert top.fix_kind == "provision_tier"
        assert top.target == "app"

    def test_diagnoses_stale_statistics(self):
        _, _, _, event = capture_event(StaleStatisticsFault())
        kinds = [
            r.fix_kind for r in BottleneckAnalysisApproach().recommend(event)
        ]
        assert kinds[0] == "update_statistics"

    def test_non_bottleneck_falls_through(self):
        from repro.faults.app_faults import SourceCodeBugFault

        _, _, _, event = capture_event(SourceCodeBugFault(0.25))
        recommendations = BottleneckAnalysisApproach().recommend(event)
        assert recommendations[0].confidence <= 0.2  # generic fallback


class TestCombinedAndAdaptive:
    def _signature(self):
        return SignatureApproach(NaiveBayesSynopsis(ALL_FIX_KINDS))

    def test_combined_consults_diagnosis_when_unsure(self):
        approach = CombinedApproach(
            self._signature(),
            diagnosers=[BottleneckAnalysisApproach()],
        )
        _, _, _, event = capture_event(TierCapacityLossFault("app"))
        top = approach.recommend(event)[0]
        assert top.fix_kind == "provision_tier"
        assert approach.diagnosis_consultations == 1

    def test_combined_learns_and_skips_diagnosis(self):
        approach = CombinedApproach(
            self._signature(),
            diagnosers=[BottleneckAnalysisApproach()],
            confidence_threshold=0.45,
        )
        _, _, _, event = capture_event(TierCapacityLossFault("app"))
        rec = Recommendation(
            "provision_tier", "app", 1.0, "test", "signature_fixsym"
        )
        # Teach the signature three times so the posterior is confident.
        for _ in range(3):
            approach.observe_outcome(event, rec, fixed=True)
        approach.recommend(event)
        assert approach.signature_decisions >= 1


class TestMergeRecommendations:
    def test_dedupes_and_bonuses_agreement(self):
        a = [Recommendation("fix_x", None, 0.6, "r1", "a1")]
        b = [
            Recommendation("fix_x", None, 0.5, "r2", "a2"),
            Recommendation("fix_y", None, 0.55, "r3", "a2"),
        ]
        merged = merge_recommendations([a, b])
        assert merged[0].fix_kind == "fix_x"
        assert merged[0].confidence == pytest.approx(0.65)

    def test_exclusion_and_weights(self):
        a = [Recommendation("fix_x", None, 0.9, "r", "a1")]
        b = [Recommendation("fix_y", None, 0.5, "r", "a2")]
        merged = merge_recommendations(
            [a, b], weights={"a2": 2.0}, exclude={"fix_x"}
        )
        assert [r.fix_kind for r in merged] == ["fix_y"]
        assert merged[0].confidence == pytest.approx(1.0)
