"""Trace determinism and record→replay round-trip equality."""

import json

import pytest

from repro.cli import main
from repro.fleet.campaign import aggregate_campaigns, run_fleet_campaign
from repro.healing.report import EpisodeReport
from repro.scenarios.runner import (
    format_scenario,
    replay_campaign,
    replay_fleet_campaign,
    run_scenario,
)
from repro.scenarios.trace import load_trace, tick_payload, trace_sha256

# Small-but-real campaign shape shared by the round-trip tests.
SCENARIO = "retry_storm"
SEED = 3
EPISODES = 2


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded scenario campaign, reused across tests."""
    path = tmp_path_factory.mktemp("traces") / "scenario.jsonl"
    run = run_scenario(
        SCENARIO, seed=SEED, n_episodes=EPISODES, record_path=str(path)
    )
    return run, str(path)


def _assert_reports_equal(a: EpisodeReport, b: EpisodeReport) -> None:
    assert a.fault_kinds == b.fault_kinds
    assert a.fault_category == b.fault_category
    assert a.injected_at == b.injected_at
    assert a.detected_at == b.detected_at
    assert a.recovered_at == b.recovered_at
    assert a.successful_fix == b.successful_fix
    assert a.escalated == b.escalated
    assert a.admin_resolved == b.admin_resolved
    assert a.outcomes == b.outcomes
    assert [(app.kind, app.target) for app in a.applications] == [
        (app.kind, app.target) for app in b.applications
    ]


class TestDeterminism:
    def test_same_seed_same_trace_hash(self, tmp_path):
        runs = [
            run_scenario(
                SCENARIO,
                seed=SEED,
                n_episodes=EPISODES,
                record_path=str(tmp_path / f"t{i}.jsonl"),
            )
            for i in range(2)
        ]
        assert runs[0].trace_sha256 == runs[1].trace_sha256
        assert runs[0].trace_sha256 == trace_sha256(runs[0].trace_path)

    def test_different_seed_different_trace_hash(self, tmp_path, recorded):
        run, _ = recorded
        other = run_scenario(
            SCENARIO,
            seed=SEED + 1,
            n_episodes=EPISODES,
            record_path=str(tmp_path / "other.jsonl"),
        )
        assert other.trace_sha256 != run.trace_sha256


class TestSingleServiceRoundTrip:
    def test_replay_reproduces_campaign_statistics(self, recorded):
        run, path = recorded
        replayed = replay_campaign(path)
        assert replayed.result.injected == run.result.injected
        assert replayed.result.undetected == run.result.undetected
        assert len(replayed.result.reports) == len(run.result.reports)
        for a, b in zip(run.result.reports, replayed.result.reports):
            _assert_reports_equal(a, b)
        # The CLI-visible statistics block is byte-identical.
        assert format_scenario(replayed) == format_scenario(run)

    def test_trace_structure(self, recorded):
        run, path = recorded
        header, members = load_trace(path)
        assert header["scenario"] == SCENARIO
        assert header["seed"] == SEED
        assert header["kind"] == "campaign"
        member = members[0]
        assert member.injected == run.result.injected
        assert len(member.faults) == run.result.injected
        # Every recorded tick is strictly sequential from zero.
        assert [tick_payload(t)["tick"] for t in member.ticks] == list(
            range(len(member.ticks))
        )

    def test_replay_rejects_wrong_trace_kind(self, tmp_path, recorded):
        _, path = recorded
        with pytest.raises(ValueError, match="fleet"):
            replay_fleet_campaign(path)

    def test_replay_rejects_non_trace_file(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(json.dumps({"type": "tick"}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            replay_campaign(str(bogus))


class TestSloTimeline:
    def test_live_run_flags_every_tick(self):
        run = run_scenario("flash_crowd", seed=7, n_episodes=3)
        flags = run.slo_flags
        assert len(flags) == run.result.total_ticks
        assert run.result.reports
        for report in run.result.reports:
            # Detection fires on a violating tick; recovery is
            # declared on a compliant one.
            assert flags[report.detected_at] is True
            assert flags[report.recovered_at] is False

    def test_replay_has_no_timeline(self, recorded):
        _, path = recorded
        assert replay_campaign(path).slo_flags == []


class TestFleetRoundTrip:
    @pytest.fixture(scope="class")
    def fleet_recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "fleet.jsonl"
        result = run_fleet_campaign(
            n_services=2,
            episodes_per_service=2,
            seed=1,
            workers=1,
            scenario="black_friday",
            record_path=str(path),
        )
        return result, str(path)

    def test_replay_reproduces_every_member(self, fleet_recorded):
        result, path = fleet_recorded
        per_member = replay_fleet_campaign(path)
        assert len(per_member) == result.n_services
        for original, replayed in zip(result.per_service, per_member):
            assert original.injected == replayed.injected
            assert original.undetected == replayed.undetected
            assert len(original.reports) == len(replayed.reports)
            for a, b in zip(original.reports, replayed.reports):
                _assert_reports_equal(a, b)

    def test_replay_reproduces_pooled_statistics(self, fleet_recorded):
        result, path = fleet_recorded
        pooled = aggregate_campaigns(replay_fleet_campaign(path))
        assert pooled.mean_attempts == result.pooled.mean_attempts
        assert (
            pooled.mean_detection_ticks()
            == result.pooled.mean_detection_ticks()
        )

    def test_scenario_shapes_fleet_members(self, fleet_recorded):
        result, path = fleet_recorded
        assert result.scenario == "black_friday"
        header, _ = load_trace(path)
        assert header["kind"] == "fleet"
        assert len(header["member_seeds"]) == 2
        # black_friday restricts the strike universe to DB faults
        # (cascade slots additionally surge the survivors).
        from repro.scenarios.packs import DB_FAULT_KINDS

        allowed = set(DB_FAULT_KINDS) | {"tier_capacity_loss", "load_surge"}
        for strike in result.schedule:
            assert set(strike.kinds) <= allowed

    def test_fleet_trace_bytes_are_pinned(self, tmp_path):
        # The header's facts come from the coordinator (fleet shape,
        # member seeds) and from the recorded services (beans,
        # capacities); moving where either is written must not move a
        # byte.
        path = tmp_path / "fleet3.jsonl"
        result = run_fleet_campaign(
            n_services=3,
            episodes_per_service=2,
            seed=5,
            record_path=str(path),
        )
        assert result.trace_sha256 == trace_sha256(str(path)) == (
            "3a41a773c7f5087edbca5b8404015346bce4865919f9b5b0a9ed16470e6331a3"
        )

    def test_recording_requires_in_process_runner(self, tmp_path):
        with pytest.raises(ValueError, match="workers=1"):
            run_fleet_campaign(
                n_services=2,
                episodes_per_service=1,
                workers=2,
                record_path=str(tmp_path / "nope.jsonl"),
            )


class TestScenarioCLI:
    def test_list_smoke(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("flash_crowd", "diurnal", "retry_storm",
                     "slow_burn", "black_friday"):
            assert name in out

    def test_run_then_replay_prints_identical_statistics(
        self, recorded, capsys
    ):
        _, path = recorded
        assert main(["scenario", "replay", path]) == 0
        replay_out = capsys.readouterr().out
        # The replayed statistics block matches a fresh format of the
        # recorded run (the CLI acceptance check).
        stats = format_scenario(replay_campaign(path))
        assert stats in replay_out


class TestReplayHealsOnlyInsideEpisodes:
    def test_bursty_false_alarms_between_episodes_stay_unhealed(
        self, tmp_path
    ):
        # flash_crowd's recurring bursts raise false alarms while the
        # recording campaign warms up and settles between episodes,
        # where it does not heal; a replay that healed them would learn
        # from episodes the recording never ran and pick other fixes.
        path = str(tmp_path / "flash_crowd_8.jsonl")
        run = run_scenario(
            "flash_crowd", seed=8, n_episodes=6, record_path=path
        )
        replayed = replay_campaign(path)
        assert replayed.result.injected == run.result.injected
        assert replayed.result.undetected == run.result.undetected
        assert len(replayed.result.reports) == len(run.result.reports)
        for a, b in zip(run.result.reports, replayed.result.reports):
            _assert_reports_equal(a, b)
        assert format_scenario(replayed) == format_scenario(run)
