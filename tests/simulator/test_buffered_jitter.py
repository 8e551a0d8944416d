"""Every service serves its web and database jitter from block buffers."""

import numpy as np
import pytest

from repro.simulator.config import ServiceConfig
from repro.simulator.fastdraw import JITTER, BufferedNormal
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService


def verify_buffered_stream(seed: int, draws: int, block: int) -> None:
    """Assert block fills match scalar draws bitwise on this build.

    Twin generators from the same seed: one serves ``draws`` scalar
    ``normal(1.0, 0.04)`` calls, the other the same draws through a
    :class:`BufferedNormal`.  Raises ``AssertionError`` on the first
    divergence in values or in generator end state.
    """
    scalar_rng = np.random.default_rng(seed)
    buffered_rng = np.random.default_rng(seed)
    buffered = BufferedNormal(buffered_rng, 1.0, 0.04, block=block)
    for i in range(draws):
        expected = float(scalar_rng.normal(1.0, 0.04))
        got = buffered.normal(1.0, 0.04)
        assert got == expected, (
            f"draw {i} diverged: buffered {got!r} != scalar {expected!r}"
        )
    # The buffered generator ran ahead by the unconsumed prefetch tail;
    # equality of the *next* scalar draws proves the streams never
    # skipped or reordered bits within the consumed prefix.
    tail = (-draws) % block
    if tail:
        leftover = buffered._buf[buffered._pos :]
        reference = scalar_rng.normal(1.0, 0.04, size=tail)
        assert np.array_equal(leftover, reference), (
            "prefetch tail diverged from the scalar stream"
        )
    assert (
        scalar_rng.bit_generator.state == buffered_rng.bit_generator.state
    ), "generator end states diverged"


def test_fresh_service_buffers_web_and_db_jitter():
    service = MultitierService(ServiceConfig(seed=5))
    for tier in (service.web, service.db):
        assert isinstance(tier._rng, BufferedNormal)
        assert isinstance(tier._rng._rng, np.random.Generator)
        assert (tier._rng._loc, tier._rng._scale) == JITTER


def test_buffered_jitter_is_the_scalar_stream():
    seed = 5
    service = MultitierService(ServiceConfig(seed=seed))
    service.run(40)
    # The web tier draws once per tick.
    web = derive_rng(seed, "web")
    expected = [float(web.normal(*JITTER)) for _ in range(40)]
    served = service.web._rng._buf[: service.web._rng._pos]
    assert served == expected


class TestBufferedNormal:
    @pytest.mark.parametrize("block", [1, 3, 64, 256])
    def test_block_fills_match_scalar_draws(self, block):
        # Draw counts straddling block boundaries, including a partial
        # final block (the prefetch-tail check inside the verifier).
        verify_buffered_stream(seed=11, draws=2 * block + 1, block=block)
        verify_buffered_stream(seed=0, draws=500, block=block)

    def test_parameter_mismatch_raises(self):
        buffered = BufferedNormal(np.random.default_rng(0), 1.0, 0.04)
        buffered.normal(1.0, 0.04)
        with pytest.raises(RuntimeError, match="desynchronize"):
            buffered.normal(0.0, 1.0)

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            BufferedNormal(np.random.default_rng(0), 1.0, 0.04, block=0)
