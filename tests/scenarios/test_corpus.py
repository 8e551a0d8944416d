"""Corpus tests: oracle, shrinker, persistence, CLI gate, goldens.

``TestCommittedCorpus`` is the in-suite twin of the CI corpus-replay
gate: every committed reproducer under ``corpus/`` must replay with a
bit-identical campaign fingerprint.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.campaign import CampaignResult
from repro.fixes.base import FixApplication
from repro.healing.report import EpisodeReport
from repro.scenarios.corpus import (
    VERDICTS,
    _bucket_of,
    _entry_from_run,
    classify,
    fingerprint_result,
    fuzz,
    load_corpus,
    replay_corpus,
    run_generated,
    save_entry,
    shrink,
)
from repro.scenarios.generator import GeneratedScenario, sample_fault_spec

CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus"


def make_spec(slots, **overrides) -> GeneratedScenario:
    fields = dict(
        name="crafted",
        seed=5,
        workload={
            "pattern": "constant",
            "options": {},
            "arrival_scale": 1.0,
            "retry": None,
        },
        slo=None,
        fault_plan=tuple(slots),
        fleet={
            "n_services": 1,
            "episodes_per_service": 1,
            "p_correlated": 0.4,
            "p_cascade": 0.0,
            "kinds": sorted({s["kind"] for s in slots}),
        },
        max_episode_wait=40,
        settle_ticks=10,
    )
    fields.update(overrides)
    return GeneratedScenario(**fields)


def _application(kind, target=None):
    return FixApplication(kind=kind, target=target, cost_ticks=1, detail="")


def _report(**overrides):
    fields = dict(
        event_id=0,
        fault_kinds=("deadlocked_threads",),
        fault_category="software",
        injected_at=10,
        detected_at=15,
        recovered_at=25,
        applications=[_application("microreboot_ejb", "ItemBean")],
        outcomes=[True],
        successful_fix="microreboot_ejb",
        escalated=False,
        admin_resolved=False,
    )
    fields.update(overrides)
    return EpisodeReport(**fields)


def _result(reports, injected=None, undetected=0):
    return CampaignResult(
        reports=reports,
        injected=injected if injected is not None else len(reports),
        undetected=undetected,
        total_ticks=100,
    )


class TestOracle:
    def test_clean_run_has_no_verdicts(self):
        assert classify(_result([_report()]), [False] * 100) == ()

    def test_missed_detection(self):
        result = _result([_report()], injected=2, undetected=1)
        assert classify(result, [False] * 100) == ("missed_detection",)

    def test_failed_repair_on_admin_resolution(self):
        result = _result([_report(admin_resolved=True, escalated=True)])
        assert "failed_repair" in classify(result, [False] * 100)

    def test_failed_repair_on_no_recovery(self):
        result = _result([_report(recovered_at=None, successful_fix=None)])
        assert "failed_repair" in classify(result, [False] * 100)

    def test_oscillating_repair_is_an_aba_pattern(self):
        aba = _report(
            applications=[
                _application("reboot_tier", "app"),
                _application("update_statistics"),
                _application("reboot_tier", "app"),
            ],
            outcomes=[False, False, True],
            successful_fix="reboot_tier",
        )
        assert "oscillating_repair" in classify(_result([aba]), [False] * 100)
        # A..A (straight retry) and A..B are fine.
        retry = _report(
            applications=[
                _application("reboot_tier", "app"),
                _application("reboot_tier", "app"),
            ],
            outcomes=[False, True],
            successful_fix="reboot_tier",
        )
        assert "oscillating_repair" not in classify(
            _result([retry]), [False] * 100
        )

    def test_slo_breach_after_heal_windowing(self):
        flags = [False] * 100
        flags[30] = True  # recovered_at=25 + window 25 covers tick 30
        result = _result([_report()])
        assert "slo_breach_after_heal" in classify(result, flags)
        late = [False] * 100
        late[60] = True  # beyond the window: not this heal's fault
        assert "slo_breach_after_heal" not in classify(result, late)

    def test_wrong_tier_root_cause(self):
        # A db-rooted fault healed by an app-tier fix that is not a
        # catalog candidate: root cause was misidentified.
        wrong = _report(
            fault_kinds=("hung_query",),
            fault_category="software",
            applications=[_application("microreboot_ejb", "ItemBean")],
            outcomes=[True],
            successful_fix="microreboot_ejb",
        )
        assert "wrong_tier_root_cause" in classify(
            _result([wrong]), [False] * 100
        )
        # The canonical fix is never wrong-tier.
        right = _report(
            fault_kinds=("hung_query",),
            applications=[_application("kill_hung_query", "hung-1")],
            outcomes=[True],
            successful_fix="kill_hung_query",
        )
        assert "wrong_tier_root_cause" not in classify(
            _result([right]), [False] * 100
        )

    def test_verdicts_come_out_in_severity_order(self):
        result = _result(
            [
                _report(admin_resolved=True),
                _report(
                    fault_kinds=("hung_query",),
                    successful_fix="microreboot_ejb",
                    applications=[_application("microreboot_ejb", "ItemBean")],
                ),
            ],
            injected=3,
            undetected=1,
        )
        verdicts = classify(result, [False] * 100)
        assert verdicts == tuple(v for v in VERDICTS if v in verdicts)
        assert verdicts[0] == "failed_repair"


def _slot(kind, **params):
    return {"kind": kind, "params": params}


DEADLOCK = _slot("deadlocked_threads", bean="ItemBean")
MILD_SURGE = _slot("load_surge", factor=1.05, duration_ticks=30)


class TestBucketKeys:
    """The fuzzer's novelty key names the kinds that earned the verdict.

    Each crafted run earns one primary verdict; where its plan also
    holds a clean deadlock episode, the bucket leaves that kind out.
    """

    @pytest.mark.parametrize(
        "slots, overrides, bucket",
        [
            (
                [
                    DEADLOCK,
                    _slot(
                        "stale_statistics",
                        table="bids",
                        column="item_id",
                        phantom_skew=900.0,
                    ),
                ],
                {},
                "failed_repair:stale_statistics",
            ),
            (
                [
                    _slot("load_surge", factor=5.25, duration_ticks=240),
                    _slot("load_surge", factor=5.0, duration_ticks=240),
                ],
                {
                    "slo": {"latency_ms": 230.0, "error_rate": 0.06},
                    "max_episode_wait": 60,
                },
                "oscillating_repair:load_surge",
            ),
            (
                [_slot("hung_query", table="items"), DEADLOCK],
                {},
                "slo_breach_after_heal:hung_query",
            ),
            (
                [
                    DEADLOCK,
                    _slot("transient_glitch", multiplier=22.0, duration_ticks=90),
                ],
                {},
                "wrong_tier_root_cause:transient_glitch",
            ),
            ([DEADLOCK, MILD_SURGE], {}, "missed_detection:load_surge"),
        ],
        ids=[
            "failed_repair",
            "oscillating_repair",
            "slo_breach_after_heal",
            "wrong_tier_root_cause",
            "missed_detection",
        ],
    )
    def test_bucket_names_the_offending_kinds(self, slots, overrides, bucket):
        run = run_generated(make_spec(slots, **overrides))
        assert run.primary_verdict == bucket.split(":")[0]
        assert _bucket_of(run) == bucket

    def test_clean_run_falls_back_to_the_plan_kinds(self):
        run = run_generated(
            make_spec([DEADLOCK, _slot("hung_query", table="items")])
        )
        assert run.verdicts == ()
        assert _bucket_of(run) == "none:deadlocked_threads+hung_query"

    def test_missed_kind_also_detected_falls_back_to_the_plan_kinds(self):
        # The mild surge goes unnoticed, but the strong one is detected,
        # so no kind is undetected in every slot.
        strong = _slot("load_surge", factor=8.0, duration_ticks=120)
        run = run_generated(make_spec([DEADLOCK, MILD_SURGE, strong]))
        assert run.verdicts == ("missed_detection",)
        assert (
            _bucket_of(run)
            == "missed_detection:deadlocked_threads+load_surge"
        )


class TestRunGenerated:
    def test_same_spec_same_fingerprint(self, rng):
        spec = make_spec([sample_fault_spec(rng, kind="deadlocked_threads")])
        a = run_generated(spec)
        b = run_generated(spec)
        assert a.fingerprint == b.fingerprint
        assert a.verdicts == b.verdicts

    def test_record_replay_roundtrip(self, rng, tmp_path):
        from repro.scenarios.runner import replay_campaign

        spec = make_spec([sample_fault_spec(rng, kind="unhandled_exception")])
        trace = str(tmp_path / "gen.jsonl")
        run = run_generated(spec, record_path=trace)
        assert run.scenario_run.trace_sha256 is not None
        replayed = replay_campaign(trace)
        assert fingerprint_result(replayed.result) == run.fingerprint


class TestShrinker:
    def test_reduces_known_bad_scenario_to_quarter(self):
        # Eight slots; only the mild load surge (never breaches the
        # SLO, so never detected) produces the missed_detection
        # verdict.  The minimizer must isolate it: <= 2 of 8 slots
        # (the 25% acceptance bound).
        filler = {"kind": "deadlocked_threads", "params": {"bean": "ItemBean"}}
        needle = {
            "kind": "load_surge",
            "params": {"factor": 1.05, "duration_ticks": 30},
        }
        slots = [dict(filler) for _ in range(8)]
        slots[5] = needle
        spec = make_spec(slots)
        result = shrink(spec, verdict="missed_detection")
        assert result.spec.n_episodes <= 2  # <= 25% of 8
        assert needle in [dict(s) for s in result.spec.fault_plan]
        assert (
            "missed_detection" in run_generated(result.spec).verdicts
        )

    def test_shrink_rejects_passing_spec(self, rng):
        spec = make_spec([sample_fault_spec(rng, kind="deadlocked_threads")])
        run = run_generated(spec)
        missing = next(v for v in VERDICTS if v not in run.verdicts)
        with pytest.raises(ValueError):
            shrink(spec, verdict=missing)


class TestCorpusPersistence:
    def _entry(self, tmp_path):
        needle = {
            "kind": "load_surge",
            "params": {"factor": 1.05, "duration_ticks": 30},
        }
        run = run_generated(make_spec([needle]))
        assert run.primary_verdict == "missed_detection"
        return _entry_from_run(run, found={"case": 0}, with_fleet=False)

    def test_save_load_replay(self, tmp_path):
        entry = self._entry(tmp_path)
        save_entry(str(tmp_path), entry)
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0].spec == entry.spec
        assert loaded[0].fingerprint == entry.fingerprint
        checks = replay_corpus(str(tmp_path))
        assert len(checks) == 1 and checks[0].ok

    def test_cli_gate_fails_on_drift(self, tmp_path, capsys):
        entry = self._entry(tmp_path)
        path = save_entry(str(tmp_path), entry)
        assert main(["scenario", "corpus", "run", "--dir", str(tmp_path)]) == 0
        payload = json.loads(Path(path).read_text())
        payload["fingerprint"] = "0" * 64
        Path(path).write_text(json.dumps(payload))
        assert main(["scenario", "corpus", "run", "--dir", str(tmp_path)]) == 1
        assert "fingerprint drift" in capsys.readouterr().out

    def test_cli_gate_fails_on_empty_corpus(self, tmp_path):
        assert (
            main(
                [
                    "scenario",
                    "corpus",
                    "run",
                    "--dir",
                    str(tmp_path / "nothing"),
                ]
            )
            == 1
        )


class TestFuzzCampaign:
    def test_fuzz_is_deterministic_and_dedupes(self, tmp_path):
        a = fuzz(
            budget=2,
            seed=123,
            out_dir=str(tmp_path / "a"),
            shrink_new=False,
            with_fleet=False,
        )
        b = fuzz(
            budget=2,
            seed=123,
            out_dir=str(tmp_path / "b"),
            shrink_new=False,
            with_fleet=False,
        )
        assert a.verdict_counts == b.verdict_counts
        assert [e.bucket for _, e in a.new_entries] == [
            e.bucket for _, e in b.new_entries
        ]
        assert [e.fingerprint for _, e in a.new_entries] == [
            e.fingerprint for _, e in b.new_entries
        ]
        # A second campaign against the same corpus finds nothing new.
        again = fuzz(
            budget=2,
            seed=123,
            corpus_dir=str(tmp_path / "a"),
            out_dir=str(tmp_path / "a"),
            shrink_new=False,
            with_fleet=False,
        )
        assert not again.new_entries
        assert again.skipped_known >= len(a.new_entries)


class TestCliExitCodes:
    def test_unknown_pack_exits_nonzero(self, capsys):
        assert main(["scenario", "run", "thundering_herd"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown scenario" in err

    def test_unknown_approach_exits_nonzero(self, capsys):
        assert (
            main(["scenario", "run", "diurnal", "--approach", "oracle"]) == 2
        )
        assert "unknown approach" in capsys.readouterr().err

    def test_missing_trace_exits_nonzero(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-trace.jsonl")
        assert main(["scenario", "replay", missing]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(
    not CORPUS_DIR.is_dir(), reason="committed corpus not present"
)
class TestCommittedCorpus:
    def test_corpus_is_populated_and_minimized(self):
        entries = load_corpus(str(CORPUS_DIR))
        assert len(entries) >= 10
        for entry in entries:
            assert entry.verdicts, entry.name
            assert entry.summary.get("slots", 99) <= 4, (
                f"{entry.name} is not minimized"
            )

    def test_corpus_replays_bit_exactly(self):
        # The tier-1 twin of the CI corpus-replay gate.  Fleet
        # fingerprints are checked by the dedicated test below so a
        # drift failure here points straight at the single-service
        # engine.
        checks = replay_corpus(str(CORPUS_DIR), check_fleet=False)
        bad = [f"{c.entry.name}: {c.details}" for c in checks if not c.ok]
        assert not bad, "corpus drift:\n" + "\n".join(bad)

    def test_every_recorded_entry_replays_to_its_fingerprint(self, tmp_path):
        # Recording goes through the standard trace layer, so a trace
        # replayed with a fresh loop must reproduce the pinned campaign.
        from repro.scenarios.runner import replay_campaign

        drifted = []
        for entry in load_corpus(str(CORPUS_DIR)):
            trace = str(tmp_path / f"{entry.name}.jsonl")
            run_generated(
                entry.spec,
                approach=entry.approach,
                threshold=entry.threshold,
                record_path=trace,
            )
            replayed = replay_campaign(trace)
            if fingerprint_result(replayed.result) != entry.fingerprint:
                drifted.append(entry.name)
        assert not drifted, f"replay drift: {drifted}"

    def test_one_fleet_entry_replays_bit_exactly(self):
        from repro.scenarios.corpus import _run_fleet, fingerprint_fleet

        entries = [
            e
            for e in load_corpus(str(CORPUS_DIR))
            if e.fleet_fingerprint is not None
        ]
        if not entries:
            pytest.skip("corpus has no multi-service entries")
        entry = entries[0]
        assert (
            fingerprint_fleet(_run_fleet(entry.spec))
            == entry.fleet_fingerprint
        )

    def test_every_fleet_entry_replays_bit_exactly(self):
        # Every committed fleet fingerprint reproduces byte-identically
        # (each entry is a minimized reproducer of some healing
        # pathology, so the corpus doubles as a hard-case fleet set).
        from repro.scenarios.corpus import _run_fleet, fingerprint_fleet

        entries = [
            e
            for e in load_corpus(str(CORPUS_DIR))
            if e.fleet_fingerprint is not None
        ]
        if not entries:
            pytest.skip("corpus has no multi-service entries")
        drifted = [
            entry.name
            for entry in entries
            if fingerprint_fleet(_run_fleet(entry.spec))
            != entry.fleet_fingerprint
        ]
        assert not drifted, f"fleet drift: {drifted}"
