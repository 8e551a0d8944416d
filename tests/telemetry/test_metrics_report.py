"""Unit tests for healing spans, recurrence, aggregation, rendering."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import run_campaign
from repro.scenarios.runner import build_approach, run_scenario
from repro.simulator.config import ServiceConfig
from repro.simulator.service import MultitierService
from repro.telemetry import HealingTelemetry, load_events
from repro.telemetry.healing import _scrub
from repro.telemetry.metrics import aggregate_events, render_prometheus
from repro.telemetry.report import format_report


@pytest.fixture(scope="module")
def campaign_events():
    telemetry = HealingTelemetry(member=0)
    run_campaign(
        build_approach("signature"),
        n_episodes=4,
        seed=13,
        service=MultitierService(ServiceConfig(seed=13)),
        telemetry=telemetry,
    )
    return telemetry.events


class TestHealingSpans:
    def test_every_episode_is_a_complete_span_tree(self, campaign_events):
        starts = [e for e in campaign_events if e["type"] == "episode_start"]
        ends = [e for e in campaign_events if e["type"] == "episode_end"]
        assert starts and len(starts) == len(ends)
        for start in starts:
            episode = start["episode"]
            phases = [
                e
                for e in campaign_events
                if e["type"] == "phase" and e["episode"] == episode
            ]
            names = [p["phase"] for p in phases]
            # Detection always opens the tree; a recovered episode
            # closes with a successful verify.
            assert names[0] == "detection"
            assert all(
                p["end"] >= p["start"] for p in phases
            ), f"negative span in episode {episode}"
            end = next(e for e in ends if e["episode"] == episode)
            if end["recovered"] and not end["admin_resolved"]:
                verifies = [p for p in phases if p["phase"] == "verify"]
                assert verifies and verifies[-1]["success"]

    def test_audit_records_follow_snippet3_shape(self, campaign_events):
        audits = [e for e in campaign_events if e["type"] == "audit"]
        assert audits
        for audit in audits:
            for key in (
                "trigger_reason",
                "action_taken",
                "before_state",
                "after_state",
                "success",
                "stage",
            ):
                assert key in audit, f"audit missing {key}"
            # Snapshots compare the same fixed metric set.
            assert set(audit["before_state"]) == set(audit["after_state"])
        first = [a for a in audits if a["attempt"] == 1 and a["stage"] == "fix"]
        assert all(
            a["trigger_reason"].startswith("slo-violation:") for a in first
        )
        retries = [
            a for a in audits if a["attempt"] > 1 and a["stage"] == "fix"
        ]
        assert all(
            a["trigger_reason"].startswith("failed-fix:") for a in retries
        )

    def test_embedded_report_round_trips(self, campaign_events):
        from repro.healing.report import EpisodeReport

        ends = [e for e in campaign_events if e["type"] == "episode_end"]
        for end in ends:
            report = EpisodeReport.from_dict(end["report"])
            assert report.to_dict() == end["report"]


class TestRecurrence:
    def test_repeated_signature_flags_at_k(self):
        from repro.healing.report import EpisodeReport

        telemetry = HealingTelemetry(member=0, recurrence_k=3)
        flags = []
        for i in range(4):
            report = EpisodeReport(
                event_id=i,
                fault_kinds=("deadlock",),
                fault_category="software",
                injected_at=10 * i,
                detected_at=10 * i + 2,
                recovered_at=10 * i + 5,
            )
            telemetry.episode_end(report)
            flags.append(telemetry.events[-1])
        assert [e["recurrence_count"] for e in flags] == [1, 2, 3, 4]
        assert [e["recurrence_flagged"] for e in flags] == [
            False,
            False,
            True,
            True,
        ]
        assert flags[0]["signature"] == "deadlock"

    def test_window_expires_old_occurrences(self):
        from repro.healing.report import EpisodeReport

        telemetry = HealingTelemetry(
            member=0, recurrence_k=2, recurrence_window=2
        )

        def end(i, kinds):
            telemetry.episode_end(
                EpisodeReport(
                    event_id=i,
                    fault_kinds=kinds,
                    fault_category="unknown",
                    injected_at=i,
                    detected_at=i + 1,
                )
            )
            return telemetry.events[-1]["recurrence_flagged"]

        assert end(0, ("deadlock",)) is False
        assert end(1, ("leak",)) is False
        # The deadlock at episode 0 has slid out of the 2-wide window.
        assert end(2, ("deadlock",)) is False
        assert end(3, ("deadlock",)) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            HealingTelemetry(recurrence_k=0)
        with pytest.raises(ValueError):
            HealingTelemetry(recurrence_window=0)


class TestScrub:
    def test_hung_txn_ids_are_canonicalized(self):
        assert _scrub("killed hung-17") == "killed hung-*"
        assert _scrub({"t": ["hung-1", 3]}) == {"t": ["hung-*", 3]}
        assert _scrub(5) == 5


class TestAggregation:
    def test_counters_match_event_counts(self, campaign_events):
        agg = aggregate_events(campaign_events)
        counters = agg["counters"]
        ends = [e for e in campaign_events if e["type"] == "episode_end"]
        episodes = sum(
            v for (name, _), v in counters.items()
            if name == "repro_episodes_total"
        )
        assert episodes == len(ends)
        audits = [e for e in campaign_events if e["type"] == "audit"]
        fixes = sum(
            v for (name, _), v in counters.items()
            if name == "repro_fix_applications_total"
        )
        assert fixes == len(audits)

    def test_phase_histogram_buckets_sum_to_count(self, campaign_events):
        agg = aggregate_events(campaign_events)
        hists = agg["histograms"]
        phase_hists = [
            h for (name, _), h in hists.items() if name == "repro_phase_ticks"
        ]
        assert phase_hists
        for hist in phase_hists:
            assert sum(hist.counts) == hist.count

    def test_prometheus_text_is_stable_and_well_formed(self, campaign_events):
        agg = aggregate_events(campaign_events)
        text = render_prometheus(agg)
        assert text == render_prometheus(aggregate_events(campaign_events))
        assert "# HELP repro_episodes_total" in text
        assert "# TYPE repro_phase_ticks histogram" in text
        assert 'le="+Inf"' in text
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name and float(value) >= 0

    def test_unknown_event_types_are_ignored(self):
        agg = aggregate_events([{"type": "mystery", "seq": 0}])
        assert agg == {"counters": {}, "histograms": {}}


class TestFormatReport:
    def test_report_renders_phase_timeline(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        run_scenario("flash_crowd", seed=7, n_episodes=2, events_path=path)
        header, events = load_events(path)
        text = format_report(header, events)
        assert "flight recording (repro-events/1)" in text
        assert "scenario=flash_crowd" in text
        assert "detection" in text and "repair #1" in text
        assert "audit #1" in text
        assert "summary" in text
        # A campaign log has no fleet section.
        assert "fleet health" not in text

    def test_report_renders_fleet_health(self, tmp_path):
        from repro.fleet.campaign import run_fleet_campaign

        path = str(tmp_path / "fleet.jsonl")
        run_fleet_campaign(
            n_services=2,
            episodes_per_service=2,
            seed=5,
            events_path=path,
        )
        header, events = load_events(path)
        text = format_report(header, events)
        assert "fleet health" in text
        assert "entries published" in text
        assert "watermark lag" in text

    def test_empty_log_renders_placeholder(self):
        text = format_report({"schema": "repro-events/1"}, [])
        assert "no healing episodes recorded" in text
