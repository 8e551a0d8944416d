"""Every service serves its web and database jitter from block buffers."""

import numpy as np
import pytest

from repro.simulator.config import ServiceConfig
from repro.simulator.fastdraw import (
    JITTER,
    BufferedNormal,
    verify_buffered_stream,
)
from repro.simulator.rng import derive_rng
from repro.simulator.service import MultitierService


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
