"""Flight-recorder determinism and observe-only guarantees.

Two hard contracts from the telemetry design:

* the event-log bytes are a pure function of the campaign seed — the
  same run recorded twice, or sharded across any worker count, hashes
  identically; and
* telemetry *observes, never mutates*: every campaign statistic is
  bit-identical with recording on or off.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.campaign import run_campaign
from repro.fleet.campaign import run_fleet_campaign
from repro.scenarios.corpus import fingerprint_fleet, fingerprint_result
from repro.scenarios.runner import build_approach, run_scenario
from repro.simulator.config import ServiceConfig
from repro.simulator.service import MultitierService
from repro.telemetry import HealingTelemetry, load_events


def _sha(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestByteDeterminism:
    def test_same_seed_writes_byte_identical_jsonl(self, tmp_path):
        shas = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.jsonl")
            run = run_scenario(
                "flash_crowd", seed=7, n_episodes=3, events_path=path
            )
            assert run.events_sha256 == _sha(path)
            shas.append(run.events_sha256)
        assert shas[0] == shas[1]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_fleet_writes_serial_bytes(self, tmp_path, workers):
        """The canonical stream order (coordinator, then members by
        index) makes the log independent of execution interleaving."""
        paths = {}
        for label, n_workers in (("serial", 1), ("sharded", workers)):
            path = str(tmp_path / f"{label}-{n_workers}.jsonl")
            result = run_fleet_campaign(
                n_services=4,
                episodes_per_service=2,
                seed=23,
                workers=n_workers,
                events_path=path,
            )
            assert result.events_sha256 == _sha(path)
            paths[label] = (path, result.events_sha256)
        assert paths["serial"][1] == paths["sharded"][1]
        # Not just equal hashes of different layouts: identical files.
        serial_bytes = open(paths["serial"][0], "rb").read()
        sharded_bytes = open(paths["sharded"][0], "rb").read()
        assert serial_bytes == sharded_bytes

    def test_header_carries_campaign_identity_not_topology(self, tmp_path):
        """Worker count is execution topology, not campaign identity —
        it must not appear in the header (it would break cross-worker
        byte equality)."""
        path = str(tmp_path / "fleet.jsonl")
        run_fleet_campaign(
            n_services=2,
            episodes_per_service=2,
            seed=5,
            workers=2,
            events_path=path,
        )
        header, _ = load_events(path)
        assert header["kind"] == "fleet"
        assert header["seed"] == 5
        assert header["n_services"] == 2
        assert "workers" not in header


class TestObserveOnly:
    def test_single_service_stats_identical_with_telemetry(self):
        results = {}
        for label in ("off", "on"):
            service = MultitierService(ServiceConfig(seed=13))
            telemetry = HealingTelemetry(member=0) if label == "on" else None
            results[label] = run_campaign(
                build_approach("signature"),
                n_episodes=4,
                seed=13,
                service=service,
                telemetry=telemetry,
            )
        assert fingerprint_result(results["off"]) == fingerprint_result(
            results["on"]
        )

    def test_fleet_stats_identical_with_telemetry(self, tmp_path):
        fingerprints = {}
        for label, path in (
            ("off", None),
            ("on", str(tmp_path / "ev.jsonl")),
        ):
            result = run_fleet_campaign(
                n_services=4,
                episodes_per_service=2,
                seed=23,
                workers=4,
                events_path=path,
            )
            fingerprints[label] = fingerprint_fleet(result)
        assert fingerprints["off"] == fingerprints["on"]

    def test_transport_counters_are_deterministic_across_workers(self):
        """The deterministic half of the transport block (rounds,
        knowledge counters, watermark lag) must not depend on worker
        count; only the wall-clock timings may differ."""
        deterministic = {}
        barrier_wait_s = {}
        for workers in (1, 2):
            transport = run_fleet_campaign(
                n_services=4,
                episodes_per_service=2,
                seed=23,
                workers=workers,
            ).transport
            deterministic[workers] = (
                transport["rounds"],
                transport["knowledge"],
                transport["watermark_lag"],
            )
            barrier_wait_s[workers] = transport["barrier_wait_s"]
        assert deterministic[1] == deterministic[2]
        # The sharded coordinator books its blocking waits per round.
        rounds = deterministic[2][0]
        assert rounds > 0
        assert len(barrier_wait_s[2]) == rounds
        assert all(isinstance(waits, list) for waits in barrier_wait_s[2])
