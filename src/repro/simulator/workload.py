"""RUBiS-like workload generation.

RUBiS [20] models an eBay-style auction site; of its two canonical
transition matrices, the *browsing* mix (read-only interactions) and
the *bidding* mix (15% read-write), the service runs the bidding mix
(:func:`bidding_profile`) unless given another.  The workload
generator samples Poisson arrivals per interaction type each tick,
shaped by an arrival pattern (constant, diurnal, one-off flash surge,
recurring bursts) — the "different types and rates of workloads" that
active data collection subjects a service to (Section 4.2).  The scenario packs in
:mod:`repro.scenarios` compose these shapes with fault schedules and
SLO profiles into named, reproducible workload scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "REQUEST_TYPES",
    "Workload",
    "WorkloadProfile",
    "bidding_profile",
]

REQUEST_TYPES = (
    "Home",
    "BrowseCategories",
    "SearchItemsByCategory",
    "SearchItemsByRegion",
    "ViewItem",
    "ViewBidHistory",
    "ViewUserInfo",
    "PlaceBid",
    "BuyNow",
    "RegisterUser",
    "PutComment",
    "Sell",
    "AboutMe",
)


@dataclass(frozen=True)
class WorkloadProfile:
    """A probability mix over RUBiS interaction types."""

    name: str
    mix: dict[str, float]

    def __post_init__(self) -> None:
        unknown = set(self.mix) - set(REQUEST_TYPES)
        if unknown:
            raise ValueError(f"unknown request types in mix: {sorted(unknown)}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"mix must sum to 1, got {total}")
        if any(p < 0 for p in self.mix.values()):
            raise ValueError("mix probabilities must be non-negative")

    def probability(self, request_type: str) -> float:
        return self.mix.get(request_type, 0.0)


def bidding_profile() -> WorkloadProfile:
    """RUBiS bidding mix: ~15% read-write interactions."""
    return WorkloadProfile(
        "bidding",
        {
            "Home": 0.06,
            "BrowseCategories": 0.09,
            "SearchItemsByCategory": 0.18,
            "SearchItemsByRegion": 0.06,
            "ViewItem": 0.26,
            "ViewBidHistory": 0.06,
            "ViewUserInfo": 0.06,
            "PlaceBid": 0.10,
            "BuyNow": 0.025,
            "RegisterUser": 0.015,
            "PutComment": 0.02,
            "Sell": 0.03,
            "AboutMe": 0.04,
        },
    )


class Workload:
    """Poisson arrivals per interaction type with a rate pattern.

    Args:
        profile: interaction mix.
        base_rate: mean arrivals per second.
        rng: generator for arrival sampling.
        pattern: ``"constant"``, ``"diurnal"`` (sinusoid so experiments
            see both valleys and peaks), ``"surge"`` (flash crowd: rate
            multiplies during a single configured window — the
            Walmart.com Thanksgiving scenario), or ``"bursty"``
            (recurring surges every ``surge_period`` ticks, the
            repeated-flash-crowd shape the scenario packs use).
        surge_start / surge_end: tick window for the surge pattern.
        surge_factor: rate multiplier during a surge/burst.
        surge_period / surge_duration: burst cadence and width for the
            bursty pattern (a burst opens each time
            ``tick % surge_period < surge_duration``).
        diurnal_period: sinusoid period in ticks; defaults to
            :attr:`DIURNAL_PERIOD_TICKS` (~4 simulated hours).
            Scenario packs compress it so campaign-length runs still
            sweep a full day-night cycle.
        rate_multiplier: external scaling hook used by fault injection
            (a bottlenecked-tier fault can drive load up through it).
    """

    DIURNAL_PERIOD_TICKS = 14_400.0
    PATTERNS = ("constant", "diurnal", "surge", "bursty")

    def __init__(
        self,
        profile: WorkloadProfile,
        base_rate: float,
        rng: np.random.Generator,
        pattern: str = "constant",
        surge_start: int = 0,
        surge_end: int = 0,
        surge_factor: float = 4.0,
        surge_period: int = 0,
        surge_duration: int = 0,
        diurnal_period: float | None = None,
    ) -> None:
        if base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {base_rate}")
        if pattern not in self.PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}")
        if pattern == "bursty" and surge_period <= 0:
            raise ValueError(
                "bursty pattern requires surge_period > 0, "
                f"got {surge_period}"
            )
        if surge_duration < 0:
            raise ValueError(
                f"surge_duration must be >= 0, got {surge_duration}"
            )
        if diurnal_period is not None and diurnal_period <= 0:
            raise ValueError(
                f"diurnal_period must be > 0, got {diurnal_period}"
            )
        self.profile = profile
        self.base_rate = base_rate
        self.pattern = pattern
        self.surge_start = surge_start
        self.surge_end = surge_end
        self.surge_factor = surge_factor
        self.surge_period = surge_period
        self.surge_duration = surge_duration
        self.diurnal_period = (
            diurnal_period
            if diurnal_period is not None
            else self.DIURNAL_PERIOD_TICKS
        )
        self.rate_multiplier = 1.0
        self._rng = rng
        # Hot-path cache: (type, probability) pairs for types with
        # positive probability, in registry order — the per-tick
        # sampler loops over these instead of re-resolving the profile.
        self._active_mix = tuple(
            (rt, profile.probability(rt))
            for rt in REQUEST_TYPES
            if profile.probability(rt) > 0
        )

    def rate_at(self, tick: int) -> float:
        """Offered arrival rate (requests/second) at a tick."""
        rate = self.base_rate
        if self.pattern == "diurnal":
            phase = 2.0 * np.pi * tick / self.diurnal_period
            rate *= 1.0 + 0.5 * np.sin(phase)
        elif self.pattern == "surge":
            if self.surge_start <= tick < self.surge_end:
                rate *= self.surge_factor
        elif self.pattern == "bursty":
            if tick % self.surge_period < self.surge_duration:
                rate *= self.surge_factor
        return rate * self.rate_multiplier

    def requests_at(self, tick: int) -> dict[str, int]:
        """Sample this tick's arrivals per interaction type.

        Scalar draws in registry order: for a dozen lambdas the scalar
        Poisson path beats the array call's validation overhead, and it
        consumes the bit stream exactly as the original sampler did.
        """
        rate = self.rate_at(tick)
        poisson = self._rng.poisson
        return {
            request_type: int(poisson(rate * p))
            for request_type, p in self._active_mix
        }
