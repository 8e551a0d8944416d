"""Property-based scenario generation — the scenario fuzzer's front half.

The six hand-authored packs in :mod:`repro.scenarios.packs` only ever
measure the healing loop against failure regimes we already imagined.
This module turns scenario diversity into a machine: it composes
random-but-seed-deterministic **workload shapes** (constant / diurnal /
bursty, optionally retry-amplified), **multi-tier fault plans** drawn
from the full Table 1 catalog (including plans routed through the
correlated/cascade schedule builder), **SLO profiles**, and **fleet
mixes** into :class:`GeneratedScenario` specs.

A spec is *concrete*: every fault slot carries the exact constructor
parameters of the fault it injects, so the spec — not a seed plus
sampling code — is the single source of truth.  That is what makes a
spec

* serializable (plain JSON, exact IEEE-754 float round-trip),
* shrinkable (the delta-debugging minimizer in
  :mod:`repro.scenarios.corpus` deletes slots and simplifies knobs
  without re-running any sampler), and
* bit-reproducible (same spec -> identical campaign statistics,
  the fingerprint the committed corpus pins in CI).

``generate_scenario(seed, case)`` is a pure function: every random
draw comes from ``derive_rng(seed, "fuzz", case, <component>)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.faults.app_faults import (
    DeadlockedThreadsFault,
    SoftwareAgingFault,
    SourceCodeBugFault,
    UnhandledExceptionFault,
)
from repro.faults.base import Fault
from repro.faults.catalog import FAILURE_CATALOG
from repro.faults.correlated import build_correlated_schedule
from repro.faults.db_faults import (
    BufferContentionFault,
    HungQueryFault,
    StaleStatisticsFault,
    TableContentionFault,
)
from repro.faults.infra_faults import (
    LoadSurgeFault,
    NetworkFault,
    TierCapacityLossFault,
    TransientGlitchFault,
)
from repro.faults.operator_faults import OPERATOR_VARIANTS, OperatorMisconfigFault
from repro.scenarios.packs import ScenarioPack
from repro.simulator.rng import derive_rng
from repro.simulator.slo import SLO

__all__ = [
    "ALL_FAULT_KINDS",
    "GeneratedScenario",
    "build_fault",
    "fault_to_spec",
    "generate_scenario",
    "sample_fault_spec",
]

SPEC_VERSION = 1

# Every Table 1 failure kind, in catalog order.
ALL_FAULT_KINDS: tuple[str, ...] = tuple(
    entry.kind for entry in FAILURE_CATALOG
)

_FAULT_CLASSES: dict[str, type[Fault]] = {
    cls.kind: cls
    for cls in (
        DeadlockedThreadsFault,
        UnhandledExceptionFault,
        SoftwareAgingFault,
        SourceCodeBugFault,
        HungQueryFault,
        StaleStatisticsFault,
        TableContentionFault,
        BufferContentionFault,
        TierCapacityLossFault,
        LoadSurgeFault,
        OperatorMisconfigFault,
        NetworkFault,
        TransientGlitchFault,
    )
}

# Constructor parameters per kind — the attributes a spec round-trips.
# Anything not listed here (txn_id, active, *_previous_* bookkeeping)
# is runtime state, never part of a spec.
_PARAM_FIELDS: dict[str, tuple[str, ...]] = {
    "deadlocked_threads": ("bean",),
    "unhandled_exception": ("bean", "rate"),
    "software_aging": ("leak_mb_per_tick", "chronic"),
    "source_code_bug": ("error_rate",),
    "hung_query": ("table",),
    "stale_statistics": ("table", "column", "phantom_skew"),
    "table_contention": ("table",),
    "buffer_contention": (),
    "tier_capacity_loss": ("tier",),
    "load_surge": ("factor", "duration_ticks"),
    "operator_misconfig": ("variant",),
    "network_fault": ("latency_multiplier", "drop_rate"),
    "transient_glitch": ("multiplier", "duration_ticks"),
}

_BEANS = ("ItemBean", "BidBean", "SearchBean")
_TABLES = ("items", "bids")
_TIERS = ("web", "app", "db")


def fault_to_spec(fault: Fault) -> dict:
    """Serialize a fault instance into a ``{kind, params}`` slot spec."""
    kind = fault.kind
    if kind not in _PARAM_FIELDS:
        raise KeyError(f"unknown failure kind {kind!r}")
    return {
        "kind": kind,
        "params": {name: getattr(fault, name) for name in _PARAM_FIELDS[kind]},
    }


def build_fault(spec: dict) -> Fault:
    """Instantiate the fault a ``{kind, params}`` slot spec describes."""
    kind = spec["kind"]
    if kind not in _FAULT_CLASSES:
        raise KeyError(f"unknown failure kind {kind!r}")
    return _FAULT_CLASSES[kind](**spec.get("params", {}))


# ----------------------------------------------------------------------
# Per-kind parameter samplers.  Deliberately *wider* than the catalog's
# dataset samplers: the fuzzer's whole point is to reach fault shapes
# (barely-visible surges, slow leaks, mild error rates) that the
# hand-tuned ranges never produce, because those are exactly the cases
# the oracle flags as missed detections and failed repairs.
# ----------------------------------------------------------------------

_PARAM_SAMPLERS: dict[str, Callable[[np.random.Generator], dict]] = {
    "deadlocked_threads": lambda rng: {"bean": str(rng.choice(_BEANS))},
    "unhandled_exception": lambda rng: {
        "bean": str(rng.choice(_BEANS)),
        "rate": float(rng.uniform(0.10, 0.70)),
    },
    "software_aging": lambda rng: {
        "leak_mb_per_tick": float(rng.uniform(4.0, 30.0)),
        "chronic": False,
    },
    "source_code_bug": lambda rng: {
        "error_rate": float(rng.uniform(0.05, 0.35))
    },
    "hung_query": lambda rng: {"table": str(rng.choice(_TABLES))},
    "stale_statistics": lambda rng: {
        "table": "bids",
        "column": "item_id",
        "phantom_skew": float(rng.uniform(300.0, 1500.0)),
    },
    "table_contention": lambda rng: {"table": str(rng.choice(_TABLES))},
    "buffer_contention": lambda rng: {},
    "tier_capacity_loss": lambda rng: {"tier": str(rng.choice(_TIERS))},
    "load_surge": lambda rng: {
        "factor": float(rng.uniform(1.5, 9.0)),
        "duration_ticks": int(rng.integers(60, 260)),
    },
    "operator_misconfig": lambda rng: {
        "variant": str(rng.choice(OPERATOR_VARIANTS))
    },
    "network_fault": lambda rng: {
        "latency_multiplier": float(rng.uniform(5.0, 60.0)),
        "drop_rate": float(rng.uniform(0.01, 0.12)),
    },
    "transient_glitch": lambda rng: {
        "multiplier": float(rng.uniform(4.0, 25.0)),
        "duration_ticks": int(rng.integers(40, 140)),
    },
}


def sample_fault_spec(
    rng: np.random.Generator, kind: str | None = None
) -> dict:
    """Sample one slot spec — a kind plus randomized parameters."""
    if kind is None:
        kind = str(rng.choice(ALL_FAULT_KINDS))
    if kind not in _PARAM_SAMPLERS:
        raise KeyError(f"unknown failure kind {kind!r}")
    return {"kind": kind, "params": _PARAM_SAMPLERS[kind](rng)}


# ----------------------------------------------------------------------
# The generated-scenario spec.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedScenario:
    """One fully-concrete, serializable scenario composition.

    Attributes:
        name: identifier (``gen-<seed>-<case>`` from the generator).
        seed: campaign seed the spec is run with.
        workload: ``{"pattern", "options", "arrival_scale", "retry"}``
            — the workload shape; ``retry`` is ``[gain, max_factor,
            decay]`` or None.
        slo: ``{"latency_ms", "error_rate"}`` or None for the service
            default.
        fault_plan: one ``{kind, params}`` slot spec per episode (the
            unit the shrinker deletes).
        fleet: ``{"n_services", "episodes_per_service",
            "p_correlated", "p_cascade", "kinds"}`` — how this spec
            shapes a fleet campaign (kinds is the correlated-strike
            universe).
        max_episode_wait / settle_ticks: episode-engine patience knobs.
    """

    name: str
    seed: int
    workload: dict
    slo: dict | None
    fault_plan: tuple[dict, ...]
    fleet: dict
    max_episode_wait: int = 150
    settle_ticks: int = 30
    version: int = SPEC_VERSION

    @property
    def n_episodes(self) -> int:
        return len(self.fault_plan)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "seed": self.seed,
            "workload": self.workload,
            "slo": self.slo,
            "fault_plan": list(self.fault_plan),
            "fleet": self.fleet,
            "max_episode_wait": self.max_episode_wait,
            "settle_ticks": self.settle_ticks,
        }

    def canonical_json(self) -> str:
        """Canonical serialization (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """Short content hash — the fuzzer's duplicate filter."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:12]

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GeneratedScenario":
        version = int(payload.get("version", SPEC_VERSION))
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported generated-scenario version {version} "
                f"(supported: {SPEC_VERSION})"
            )
        return cls(
            name=str(payload["name"]),
            seed=int(payload["seed"]),
            workload=dict(payload["workload"]),
            slo=dict(payload["slo"]) if payload.get("slo") else None,
            fault_plan=tuple(dict(slot) for slot in payload["fault_plan"]),
            fleet=dict(payload["fleet"]),
            max_episode_wait=int(payload["max_episode_wait"]),
            settle_ticks=int(payload["settle_ticks"]),
            version=version,
        )

    @classmethod
    def load(cls, path: str) -> "GeneratedScenario":
        """Load a spec from a JSON file (spec or corpus-entry layout)."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if "spec" in payload and "fault_plan" not in payload:
            payload = payload["spec"]  # a corpus entry wraps its spec
        return cls.from_json_dict(payload)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- execution -----------------------------------------------------

    def to_pack(self) -> ScenarioPack:
        """The equivalent :class:`ScenarioPack`.

        The pack's ``fault_plan`` ignores its seed argument — the spec
        already fixed every instance — and truncates to the requested
        episode count, so the standard runner, the trace recorder, and
        the fleet campaign all drive generated scenarios exactly like
        the built-in packs.
        """
        retry = self.workload.get("retry")
        return ScenarioPack(
            name=self.name,
            description="generated by the scenario fuzzer",
            fault_plan=lambda seed, n: [
                build_fault(slot) for slot in self.fault_plan[:n]
            ],
            pattern=self.workload.get("pattern", "constant"),
            workload_options=dict(self.workload.get("options", {})),
            arrival_scale=float(self.workload.get("arrival_scale", 1.0)),
            slo=SLO(**self.slo) if self.slo is not None else None,
            n_episodes=self.n_episodes,
            retry=tuple(retry) if retry else None,
            fleet_kinds=tuple(self.fleet.get("kinds") or ()) or None,
            p_correlated=float(self.fleet.get("p_correlated", 0.4)),
            p_cascade=float(self.fleet.get("p_cascade", 0.15)),
            max_episode_wait=self.max_episode_wait,
            settle_ticks=self.settle_ticks,
            expected_behavior=(
                "fuzzer-generated composition; see docs/fuzzing.md"
            ),
        )

    def simplified(self, **changes) -> "GeneratedScenario":
        """A copy with knob changes (the shrinker's edit primitive)."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Generation.
# ----------------------------------------------------------------------

_PATTERNS = ("constant", "diurnal", "bursty")
_PATTERN_WEIGHTS = (0.4, 0.3, 0.3)


def _generate_workload(rng: np.random.Generator) -> dict:
    pattern = str(rng.choice(_PATTERNS, p=_PATTERN_WEIGHTS))
    options: dict = {}
    if pattern == "diurnal":
        options["diurnal_period"] = float(rng.uniform(600.0, 2400.0))
    elif pattern == "bursty":
        options["surge_factor"] = float(rng.uniform(2.0, 4.0))
        options["surge_period"] = int(rng.integers(200, 500))
        options["surge_duration"] = int(rng.integers(30, 100))
    retry = None
    if rng.random() < 0.3:
        retry = [
            float(rng.uniform(1.5, 3.0)),
            float(rng.uniform(3.0, 6.0)),
            float(rng.uniform(0.3, 0.7)),
        ]
    return {
        "pattern": pattern,
        "options": options,
        "arrival_scale": float(rng.uniform(0.8, 1.6)),
        "retry": retry,
    }


def _generate_plan(rng: np.random.Generator) -> list[dict]:
    n_slots = int(rng.integers(3, 9))
    if rng.random() < 0.3:
        # Route the plan through the fleet strike machinery (a
        # one-replica correlated schedule, the black_friday idiom):
        # bursts of one failure kind with independently sampled
        # instances, over a narrowed kind universe.
        universe = [
            str(k)
            for k in rng.choice(
                ALL_FAULT_KINDS,
                size=int(rng.integers(2, 6)),
                replace=False,
            )
        ]
        schedule = build_correlated_schedule(
            n_services=1,
            n_slots=n_slots,
            seed=int(rng.integers(2**31)),
            p_correlated=float(rng.uniform(0.3, 0.9)),
            p_cascade=0.0,
            kinds=tuple(sorted(universe)),
        )
        return [fault_to_spec(strike.faults[0]) for strike in schedule]
    return [sample_fault_spec(rng) for _ in range(n_slots)]


def generate_scenario(seed: int, case: int = 0) -> GeneratedScenario:
    """Generate one scenario spec — a pure function of ``(seed, case)``.

    Component draws come from independent derived streams, so e.g. the
    workload shape of case 7 never depends on how many slots case 7's
    fault plan happened to sample.
    """
    workload = _generate_workload(derive_rng(seed, "fuzz", case, "workload"))
    plan = _generate_plan(derive_rng(seed, "fuzz", case, "plan"))

    rng = derive_rng(seed, "fuzz", case, "profile")
    slo = None
    if rng.random() < 0.7:
        slo = {
            "latency_ms": float(rng.uniform(130.0, 260.0)),
            "error_rate": float(rng.uniform(0.03, 0.09)),
        }
    max_episode_wait = int(rng.integers(60, 201))
    settle_ticks = int(rng.integers(10, 31))

    fleet_rng = derive_rng(seed, "fuzz", case, "fleet")
    p_correlated = float(fleet_rng.uniform(0.0, 0.8))
    p_cascade = float(fleet_rng.uniform(0.0, min(0.3, 1.0 - p_correlated)))
    fleet = {
        "n_services": int(fleet_rng.integers(1, 4)),
        "episodes_per_service": 2,
        "p_correlated": p_correlated,
        "p_cascade": p_cascade,
        "kinds": sorted({slot["kind"] for slot in plan}),
    }

    campaign_seed = int(
        derive_rng(seed, "fuzz", case, "campaign").integers(2**31)
    )
    return GeneratedScenario(
        name=f"gen-{seed}-{case}",
        seed=campaign_seed,
        workload=workload,
        slo=slo,
        fault_plan=tuple(plan),
        fleet=fleet,
        max_episode_wait=max_episode_wait,
        settle_ticks=settle_ticks,
    )
