"""Named workload scenario packs.

A scenario pack composes three ingredients into one named, seeded,
reproducible stress regime for the healing stack:

* a **workload shape** — an arrival pattern plus its knobs (burst
  cadence, diurnal period, sustained overload scale) and optionally a
  client *retry feedback* loop;
* a **fault schedule** — a pure function of ``(seed, n_episodes)``
  built on the Table 1 catalog (and, for the correlated packs, on
  :mod:`repro.faults.correlated`);
* an **SLO profile** — the compliance objective the detector and the
  healing loop verify against.

Two calls with the same ``(scenario, seed)`` produce byte-identical
campaigns, which is what the trace record/replay layer
(:mod:`repro.scenarios.trace`) and the determinism tests rely on.

The six built-in packs:

==============  ====================================================
flash_crowd     recurring traffic bursts plus sudden 10x load-surge
                strikes (the Walmart.com Thanksgiving regime)
diurnal         sinusoidal day/night load with the Figure 1 "Online"
                failure-cause mix landing at all phases of the cycle
retry_storm     error-producing faults whose failures are amplified
                by impatient client retries (load rises *because*
                the service is failing)
slow_burn       gradual resource leaks and statistics drift under a
                tightened SLO — failures that creep, not crash
black_friday    sustained overload with correlated database faults
                drawn through ``repro.faults.correlated``
cache_stampede  synchronized cache-TTL expiry: periodic miss storms
                slam the database tier while DB-rooted faults land
                mid-stampede
wide_mix        stock RUBiS interactions fronting a 128-template
                long-tail query universe (:mod:`repro.scenarios.wide`)
                under optimizer- and contention-rooted faults
==============  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.faults.app_faults import SoftwareAgingFault
from repro.faults.base import Fault
from repro.faults.catalog import sample_fault
from repro.faults.correlated import build_correlated_schedule
from repro.faults.infra_faults import LoadSurgeFault
from repro.faults.scenarios import (
    SERVICE_PROFILES,
    sample_fault_for_category,
)
from repro.simulator.config import ServiceConfig
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService, TickSnapshot
from repro.simulator.slo import SLO

__all__ = [
    "DB_FAULT_KINDS",
    "RetryAmplifier",
    "ScenarioPack",
    "build_scenario_service",
    "get_scenario",
    "list_scenarios",
]

# Database-rooted failure kinds (Table 1's DB rows) — the correlated
# strike universe of the black_friday pack.
DB_FAULT_KINDS: tuple[str, ...] = (
    "hung_query",
    "stale_statistics",
    "table_contention",
    "buffer_contention",
)


class RetryAmplifier:
    """Client retry feedback: failures amplify offered load.

    Real clients re-issue failed requests, so a failing service sees
    *more* traffic exactly when it can least afford it — the
    retry-storm amplification loop.  The amplifier is a service tick
    hook: after each tick it raises the workload rate multiplier in
    proportion to the observed error rate (compounding while errors
    persist) and decays back toward 1 once the service recovers.

    Deterministic — no randomness — so recorded traces of retry-storm
    scenarios stay reproducible.

    Args:
        gain: extra offered load per unit error rate per current
            amplification (errors at factor f push toward
            ``1 + gain * error_rate * f``).
        max_factor: amplification ceiling (clients give up eventually).
        decay: how much of the previous amplification persists each
            tick (0 snaps back instantly, 1 never cools down).
    """

    def __init__(
        self,
        gain: float = 2.5,
        max_factor: float = 6.0,
        decay: float = 0.5,
    ) -> None:
        if gain < 0:
            raise ValueError(f"gain must be >= 0, got {gain}")
        if max_factor < 1.0:
            raise ValueError(f"max_factor must be >= 1, got {max_factor}")
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.gain = gain
        self.max_factor = max_factor
        self.decay = decay
        self.factor = 1.0
        self._service: MultitierService | None = None

    def attach(self, service: MultitierService) -> "RetryAmplifier":
        """Register on a service's tick hooks; returns self."""
        self._service = service
        service.tick_hooks.append(self)
        return self

    def __call__(self, snapshot: TickSnapshot) -> None:
        target = 1.0 + self.gain * snapshot.error_rate * self.factor
        new = self.decay * self.factor + (1.0 - self.decay) * target
        new = min(self.max_factor, max(1.0, new))
        if self._service is not None:
            # Multiplicative patch so fault- and balancer-imposed
            # multipliers survive the retry feedback.
            workload = self._service.workload
            workload.rate_multiplier *= new / self.factor
        self.factor = new


@dataclass(frozen=True)
class ScenarioPack:
    """One named composition of workload shape, faults, and SLO.

    Attributes:
        name: registry key (also the CLI argument).
        description: one-line summary for ``repro scenario list``.
        pattern: :class:`~repro.simulator.workload.Workload` arrival
            pattern.
        workload_options: extra Workload kwargs (burst cadence, ...).
        arrival_scale: multiplier on the config's base arrival rate
            (sustained-overload packs push it above 1).
        slo: SLO profile; None keeps the service default.
        n_episodes: default fault episodes per campaign.
        fault_plan: ``(seed, n_episodes) -> list[Fault]`` — the
            deterministic per-episode fault schedule.
        retry: retry-feedback knobs ``(gain, max_factor, decay)``, or
            None for patient clients.
        fleet_kinds: failure-kind universe when this pack drives a
            fleet campaign's correlated schedule (None = the default
            Figure 4 mix).
        p_correlated / p_cascade: fleet strike-pattern probabilities
            when this pack drives a fleet campaign.
        max_episode_wait: detection patience per episode, in ticks —
            slow-burn failures need more than crashes.
        settle_ticks: healthy ticks required between episodes.
        tier_factory: ``config -> (container, db_engine)`` override
            for the service's application and database tiers — how
            packs swap in alternate blueprint/query universes (the
            wide mix).  None keeps the stock RUBiS tiers.
        expected_behavior: what healthy healing looks like under this
            pack (documented in docs/scenarios.md, echoed by the CLI).
    """

    name: str
    description: str
    fault_plan: Callable[[int, int], list[Fault]]
    pattern: str = "constant"
    workload_options: dict = field(default_factory=dict)
    arrival_scale: float = 1.0
    slo: SLO | None = None
    n_episodes: int = 6
    retry: tuple[float, float, float] | None = None
    fleet_kinds: tuple[str, ...] | None = None
    p_correlated: float = 0.4
    p_cascade: float = 0.15
    max_episode_wait: int = 150
    settle_ticks: int = 30
    tier_factory: Callable | None = None
    expected_behavior: str = ""

    def build_faults(self, seed: int, n_episodes: int | None = None) -> list[Fault]:
        """The pack's deterministic fault schedule for one campaign."""
        n = n_episodes if n_episodes is not None else self.n_episodes
        if n < 0:
            raise ValueError(f"n_episodes must be >= 0, got {n}")
        return self.fault_plan(seed, n)


def build_scenario_service(
    pack: ScenarioPack,
    config: ServiceConfig | None = None,
    seed: int | None = None,
) -> MultitierService:
    """Build a service shaped by a scenario pack.

    Applies the pack's arrival pattern, workload options, arrival
    scale, and SLO profile to a fresh :class:`MultitierService`, and
    attaches the retry amplifier when the pack has retry feedback.

    Args:
        pack: the scenario pack.
        config: sizing template; defaults to :class:`ServiceConfig`.
        seed: overrides the config seed when given.
    """
    cfg = config.copy() if config is not None else ServiceConfig()
    if seed is not None:
        cfg.seed = seed
    if pack.arrival_scale != 1.0:
        cfg = replace(cfg, arrival_rate=cfg.arrival_rate * pack.arrival_scale)
    container = db_engine = None
    if pack.tier_factory is not None:
        container, db_engine = pack.tier_factory(cfg)
    service = MultitierService(
        cfg,
        slo=pack.slo,
        pattern=pack.pattern,
        workload_options=dict(pack.workload_options),
        container=container,
        db_engine=db_engine,
    )
    if pack.retry is not None:
        gain, max_factor, decay = pack.retry
        RetryAmplifier(gain=gain, max_factor=max_factor, decay=decay).attach(
            service
        )
    return service


# ----------------------------------------------------------------------
# Fault plans.  Each is a pure function of (seed, n_episodes); every
# random draw comes from derive_rng(seed, "scenario", <name>, slot) so
# plans are independent of each other and of the simulator streams.
# ----------------------------------------------------------------------


def _flash_crowd_faults(seed: int, n_episodes: int) -> list[Fault]:
    """Sudden ~10x surges, with a capacity loss every third slot.

    The capacity strikes land while the recurring bursts are also
    running, so provisioning has to chase a moving bottleneck.
    """
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "flash_crowd", slot)
        if slot % 3 == 2:
            faults.append(sample_fault("tier_capacity_loss", rng))
        else:
            faults.append(
                LoadSurgeFault(
                    factor=float(rng.uniform(9.0, 11.0)),
                    duration_ticks=int(rng.integers(120, 200)),
                )
            )
    return faults


def _diurnal_faults(seed: int, n_episodes: int) -> list[Fault]:
    """The Figure 1 "Online" cause mix, striking at all load phases."""
    mix = SERVICE_PROFILES["Online"]
    categories = sorted(mix)
    weights = [mix[c] for c in categories]
    total = sum(weights)
    weights = [w / total for w in weights]
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "diurnal", slot)
        category = str(rng.choice(categories, p=weights))
        faults.append(sample_fault_for_category(category, rng))
    return faults


_RETRY_STORM_KINDS = ("unhandled_exception", "network_fault", "source_code_bug")


def _retry_storm_faults(seed: int, n_episodes: int) -> list[Fault]:
    """Error-producing faults — the fuel the retry feedback burns."""
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "retry_storm", slot)
        kind = _RETRY_STORM_KINDS[slot % len(_RETRY_STORM_KINDS)]
        faults.append(sample_fault(kind, rng))
    return faults


def _slow_burn_faults(seed: int, n_episodes: int) -> list[Fault]:
    """Gradual leaks and statistics drift — creeping degradation."""
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "slow_burn", slot)
        if slot % 2 == 0:
            # Half the catalog sampler's leak rate: the ramp should
            # take most of the episode wait to cross the SLO.
            faults.append(
                SoftwareAgingFault(
                    leak_mb_per_tick=float(rng.uniform(9.0, 15.0))
                )
            )
        else:
            faults.append(sample_fault("stale_statistics", rng))
    return faults


def _black_friday_faults(seed: int, n_episodes: int) -> list[Fault]:
    """Correlated DB strikes drawn through the fleet schedule builder.

    Built as a one-replica correlated schedule so single-service and
    fleet black_friday campaigns sample the *same* strike machinery
    (:func:`repro.faults.correlated.build_correlated_schedule`).
    """
    schedule = build_correlated_schedule(
        n_services=1,
        n_slots=n_episodes,
        seed=int(derive_rng(seed, "scenario", "black_friday").integers(2**31)),
        p_correlated=0.7,
        p_cascade=0.0,
        kinds=DB_FAULT_KINDS,
    )
    return [strike.faults[0] for strike in schedule]


_CACHE_STAMPEDE_KINDS = ("buffer_contention", "table_contention")


_WIDE_MIX_KINDS = (
    "stale_statistics",
    "buffer_contention",
    "table_contention",
    "hung_query",
)


def _wide_mix_faults(seed: int, n_episodes: int) -> list[Fault]:
    """Optimizer- and contention-rooted strikes for the wide universe.

    A long tail of query classes is exactly where stale statistics and
    buffer-pool churn hurt: the optimizer's estimates go wrong across
    many plans at once, and the working set is broad enough that
    contention faults can't hide in a hot page or two.
    """
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "wide_mix", slot)
        kind = _WIDE_MIX_KINDS[slot % len(_WIDE_MIX_KINDS)]
        faults.append(sample_fault(kind, rng))
    return faults


def _cache_stampede_faults(seed: int, n_episodes: int) -> list[Fault]:
    """DB-rooted strikes timed against the recurring miss storms.

    When a cache layer's TTLs are synchronized, every expiry turns the
    cache tier into a pass-through and the full read load lands on the
    database at once (the workload's ``bursty`` pattern).  The strikes
    are the failures such stampedes actually surface: buffer-pool
    thrash from the suddenly-cold working set, table contention from
    the concurrent refill writes, and every third slot a query wedged
    by the pile-up.
    """
    faults: list[Fault] = []
    for slot in range(n_episodes):
        rng = derive_rng(seed, "scenario", "cache_stampede", slot)
        if slot % 3 == 2:
            faults.append(sample_fault("hung_query", rng))
        else:
            kind = str(rng.choice(_CACHE_STAMPEDE_KINDS))
            faults.append(sample_fault(kind, rng))
    return faults


def _wide_mix_tiers(config: ServiceConfig):
    """Tier factory for the wide mix (imported lazily: the universe
    builder is only needed when the pack is actually instantiated)."""
    from repro.scenarios.wide import wide_tiers

    return wide_tiers(config)


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------

_SCENARIOS: dict[str, ScenarioPack] = {
    pack.name: pack
    for pack in (
        ScenarioPack(
            name="flash_crowd",
            description=(
                "recurring traffic bursts + sudden 10x load-surge strikes"
            ),
            fault_plan=_flash_crowd_faults,
            pattern="bursty",
            workload_options={
                "surge_factor": 2.5,
                "surge_period": 400,
                "surge_duration": 80,
            },
            # Peak-season SLA: latency relaxed, errors still tight-ish.
            slo=SLO(latency_ms=250.0, error_rate=0.08),
            expected_behavior=(
                "provision_tier chases the hot tier; surges that outrun "
                "provisioning self-clear when the crowd leaves"
            ),
        ),
        ScenarioPack(
            name="diurnal",
            description=(
                "sinusoidal day/night load with the Figure 1 'Online' "
                "failure mix"
            ),
            fault_plan=_diurnal_faults,
            pattern="diurnal",
            # Compressed day: campaign-length runs sweep full cycles.
            workload_options={"diurnal_period": 1200.0},
            expected_behavior=(
                "detection latency varies with load phase (valley "
                "failures hide longer); the cause mix exercises every "
                "fix family"
            ),
        ),
        ScenarioPack(
            name="retry_storm",
            description=(
                "client retries amplify load after error-producing faults"
            ),
            fault_plan=_retry_storm_faults,
            retry=(2.5, 6.0, 0.5),
            expected_behavior=(
                "error faults snowball into overload until the fix "
                "lands; recovery must outlast the retry backlog draining"
            ),
        ),
        ScenarioPack(
            name="slow_burn",
            description=(
                "gradual resource leak + optimizer-statistics drift"
            ),
            fault_plan=_slow_burn_faults,
            # Tightened latency objective: catch the creep early.
            slo=SLO(latency_ms=140.0, error_rate=0.04),
            max_episode_wait=400,
            expected_behavior=(
                "long detection tails (the ramp crosses the SLO late); "
                "reboot_tier and update_statistics dominate the fixes"
            ),
        ),
        ScenarioPack(
            name="black_friday",
            description=(
                "sustained overload with correlated database faults"
            ),
            fault_plan=_black_friday_faults,
            arrival_scale=1.6,
            slo=SLO(latency_ms=250.0, error_rate=0.08),
            fleet_kinds=DB_FAULT_KINDS,
            p_correlated=0.7,
            p_cascade=0.15,
            expected_behavior=(
                "database fixes (kill/analyze/repartition) under "
                "permanent pressure; in fleets the same DB fault lands "
                "everywhere at once, so shared knowledge pays off fast"
            ),
        ),
        ScenarioPack(
            name="cache_stampede",
            description=(
                "synchronized cache-TTL expiry bursts slam the DB tier"
            ),
            fault_plan=_cache_stampede_faults,
            # The TTL clock: every surge_period ticks the cache goes
            # cold and the miss storm hits the database for
            # surge_duration ticks.
            pattern="bursty",
            workload_options={
                "surge_factor": 3.0,
                "surge_period": 300,
                "surge_duration": 60,
            },
            arrival_scale=1.2,
            slo=SLO(latency_ms=220.0, error_rate=0.06),
            fleet_kinds=DB_FAULT_KINDS,
            # Fleet replicas share the cache TTL clock, so expiry (and
            # the faults it surfaces) is almost always fleet-wide.
            p_correlated=0.8,
            p_cascade=0.0,
            expected_behavior=(
                "repartition_memory and kill_hung_query dominate; "
                "failures injected mid-stampede detect fastest (the "
                "burst amplifies the symptom), between stampedes they "
                "linger until the next TTL expiry"
            ),
        ),
        ScenarioPack(
            name="wide_mix",
            description=(
                "128-template long-tail query universe over the RUBiS "
                "schema"
            ),
            fault_plan=_wide_mix_faults,
            tier_factory=_wide_mix_tiers,
            fleet_kinds=DB_FAULT_KINDS,
            expected_behavior=(
                "update_statistics and repartition_memory dominate "
                "(a wide plan surface multiplies optimizer drift); "
                "one service prices roughly 90-140 query classes per "
                "tick instead of the stock 14"
            ),
        ),
    )
}


def get_scenario(name: str) -> ScenarioPack:
    """Look up a scenario pack by name."""
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return _SCENARIOS[name]


def list_scenarios() -> list[ScenarioPack]:
    """All registered packs, name-sorted."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
