"""Tests for the property-based scenario generator."""

import json

import pytest

from repro.scenarios.generator import (
    ALL_FAULT_KINDS,
    GeneratedScenario,
    build_fault,
    fault_to_spec,
    generate_scenario,
    sample_fault_spec,
)
from repro.simulator.rng import derive_rng


def make_spec(slots, **overrides) -> GeneratedScenario:
    """A cheap hand-built spec for fast campaign-level tests."""
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


class TestFaultSpecs:
    @pytest.mark.parametrize("kind", ALL_FAULT_KINDS)
    def test_sample_build_roundtrip(self, kind, rng):
        spec = sample_fault_spec(rng, kind=kind)
        fault = build_fault(spec)
        assert fault.kind == kind
        assert fault_to_spec(fault) == spec

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(KeyError):
            sample_fault_spec(rng, kind="disk_on_fire")
        with pytest.raises(KeyError):
            build_fault({"kind": "disk_on_fire", "params": {}})

    def test_specs_are_json_serializable(self, rng):
        for kind in ALL_FAULT_KINDS:
            spec = sample_fault_spec(rng, kind=kind)
            assert json.loads(json.dumps(spec)) == spec


class TestGeneration:
    def test_same_seed_same_spec(self):
        a = generate_scenario(11, 4)
        b = generate_scenario(11, 4)
        assert a.canonical_json() == b.canonical_json()
        assert a.spec_hash() == b.spec_hash()

    def test_different_cases_differ(self):
        specs = [generate_scenario(11, case) for case in range(4)]
        hashes = {spec.spec_hash() for spec in specs}
        assert len(hashes) == len(specs)

    def test_different_seeds_differ(self):
        assert (
            generate_scenario(1, 0).canonical_json()
            != generate_scenario(2, 0).canonical_json()
        )

    @pytest.mark.parametrize("case", range(5))
    def test_generated_specs_are_valid(self, case):
        spec = generate_scenario(3, case)
        assert 3 <= spec.n_episodes <= 8
        assert spec.workload["pattern"] in ("constant", "diurnal", "bursty")
        assert 1 <= spec.fleet["n_services"] <= 3
        # Every slot builds a real fault instance (constructor
        # validation runs), and the pack composes without error.
        faults = spec.to_pack().build_faults(spec.seed)
        assert [f.kind for f in faults] == [
            slot["kind"] for slot in spec.fault_plan
        ]
        pack = spec.to_pack()
        assert pack.n_episodes == spec.n_episodes

    def test_generation_draws_are_component_independent(self):
        # The workload stream must not perturb the plan stream: the
        # plan of (seed, case) equals a fresh derivation of the same
        # component path.
        spec = generate_scenario(7, 2)
        from repro.scenarios.generator import _generate_plan

        again = _generate_plan(derive_rng(7, "fuzz", 2, "plan"))
        assert list(spec.fault_plan) == again


class TestSerialization:
    def test_json_roundtrip(self):
        spec = generate_scenario(9, 1)
        clone = GeneratedScenario.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.canonical_json() == spec.canonical_json()

    def test_dump_load(self, tmp_path):
        spec = generate_scenario(9, 2)
        path = str(tmp_path / "spec.json")
        spec.dump(path)
        assert GeneratedScenario.load(path) == spec

    def test_load_corpus_entry_layout(self, tmp_path):
        spec = generate_scenario(9, 3)
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "entry", "spec": spec.to_json_dict()}, handle
            )
        assert GeneratedScenario.load(path) == spec

    def test_unsupported_version_rejected(self):
        payload = generate_scenario(9, 4).to_json_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            GeneratedScenario.from_json_dict(payload)


class TestPack:
    def test_pack_truncates_plan(self, rng):
        slots = [
            sample_fault_spec(rng, kind="deadlocked_threads")
            for _ in range(4)
        ]
        pack = make_spec(slots).to_pack()
        assert len(pack.build_faults(0, 2)) == 2
        # The pack's seed argument is ignored: the spec is concrete.
        a = pack.build_faults(1, 4)
        b = pack.build_faults(2, 4)
        assert [vars(x)["bean"] for x in a] == [vars(x)["bean"] for x in b]

    def test_pack_carries_workload_and_fleet_mix(self, rng):
        spec = make_spec(
            [sample_fault_spec(rng, kind="buffer_contention")],
            workload={
                "pattern": "bursty",
                "options": {
                    "surge_factor": 3.0,
                    "surge_period": 300,
                    "surge_duration": 50,
                },
                "arrival_scale": 1.2,
                "retry": [2.0, 4.0, 0.5],
            },
            slo={"latency_ms": 200.0, "error_rate": 0.05},
            fleet={
                "n_services": 2,
                "episodes_per_service": 2,
                "p_correlated": 0.6,
                "p_cascade": 0.1,
                "kinds": ["buffer_contention"],
            },
        )
        pack = spec.to_pack()
        assert pack.pattern == "bursty"
        assert pack.retry == (2.0, 4.0, 0.5)
        assert pack.slo.latency_ms == 200.0
        assert pack.fleet_kinds == ("buffer_contention",)
        assert pack.p_correlated == 0.6
