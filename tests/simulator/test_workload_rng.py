"""Tests for workload generation and RNG derivation."""

import numpy as np
import pytest

from repro.simulator.rng import derive_rng
from repro.simulator.workload import (
    REQUEST_TYPES,
    Workload,
    WorkloadProfile,
    bidding_profile,
)


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(7, "workload").normal(size=5)
        b = derive_rng(7, "workload").normal(size=5)
        assert np.array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = derive_rng(7, "workload").normal(size=5)
        b = derive_rng(7, "web").normal(size=5)
        assert not np.array_equal(a, b)

    def test_integer_keys(self):
        a = derive_rng(7, "episode", 3).normal()
        b = derive_rng(7, "episode", 4).normal()
        assert a != b


class TestProfiles:
    def test_builtin_profiles_are_valid(self):
        profile = bidding_profile()
        assert sum(profile.mix.values()) == pytest.approx(1.0)
        assert set(profile.mix) <= set(REQUEST_TYPES)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", {"Home": 0.5})  # doesn't sum to 1
        with pytest.raises(ValueError):
            WorkloadProfile("bad", {"NotARequest": 1.0})


class TestWorkload:
    def test_constant_rate(self, rng):
        workload = Workload(bidding_profile(), 100.0, rng)
        assert workload.rate_at(0) == workload.rate_at(500) == 100.0

    def test_diurnal_rate_oscillates(self, rng):
        workload = Workload(
            bidding_profile(), 100.0, rng, pattern="diurnal"
        )
        quarter = int(Workload.DIURNAL_PERIOD_TICKS // 4)
        assert workload.rate_at(quarter) == pytest.approx(150.0)
        assert workload.rate_at(3 * quarter) == pytest.approx(50.0)

    def test_surge_window(self, rng):
        workload = Workload(
            bidding_profile(), 100.0, rng,
            pattern="surge", surge_start=10, surge_end=20, surge_factor=3.0,
        )
        assert workload.rate_at(5) == 100.0
        assert workload.rate_at(15) == 300.0
        assert workload.rate_at(25) == 100.0

    def test_rate_multiplier_hook(self, rng):
        workload = Workload(bidding_profile(), 100.0, rng)
        workload.rate_multiplier = 4.0
        assert workload.rate_at(0) == 400.0

    def test_sampled_counts_match_mix(self):
        workload = Workload(
            bidding_profile(), 200.0, np.random.default_rng(3)
        )
        totals: dict[str, int] = {}
        for tick in range(300):
            for request_type, count in workload.requests_at(tick).items():
                totals[request_type] = totals.get(request_type, 0) + count
        grand = sum(totals.values())
        view_share = totals["ViewItem"] / grand
        assert view_share == pytest.approx(0.26, abs=0.02)

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            Workload(bidding_profile(), 0.0, rng)
        with pytest.raises(ValueError):
            Workload(bidding_profile(), 1.0, rng, pattern="square")


class TestArrivalStream:
    """``requests_at`` consumes exactly one scalar ``poisson(rate * p)``
    per active type, in registry order — the same bits a single array
    call over the tick's lambdas consumes — so arrivals are a pure
    function of the stream however they are drawn."""

    PATTERNS = (
        ("constant", {}),
        ("surge", {"surge_start": 20, "surge_end": 45, "surge_factor": 3.5}),
        ("diurnal", {"diurnal_period": 90.0}),
        ("bursty", {"surge_period": 17, "surge_duration": 5}),
    )

    @pytest.mark.parametrize("pattern, options", PATTERNS)
    def test_matches_scalar_and_array_draws(self, pattern, options):
        seed = 2024
        workload = Workload(
            bidding_profile(),
            140.0,
            np.random.default_rng(seed),
            pattern=pattern,
            **options,
        )
        scalar_rng = np.random.default_rng(seed)
        array_rng = np.random.default_rng(seed)
        mix = bidding_profile()
        types = [t for t in REQUEST_TYPES if mix.probability(t) > 0]
        probs = np.array([mix.probability(t) for t in types])
        for tick in range(120):
            # Load-balancer and fault levers move the rate mid-run.
            if tick in (30, 70, 100):
                workload.rate_multiplier = {30: 2.5, 70: 0.3, 100: 1.0}[tick]
            counts = workload.requests_at(tick)
            rate = workload.rate_at(tick)
            scalar = [
                int(scalar_rng.poisson(rate * p)) for p in probs.tolist()
            ]
            batched = array_rng.poisson(rate * probs).tolist()
            assert list(counts) == types
            assert list(counts.values()) == scalar == batched
            assert all(type(c) is int for c in counts.values())
        state = workload._rng.bit_generator.state
        assert state == scalar_rng.bit_generator.state
        assert state == array_rng.bit_generator.state
