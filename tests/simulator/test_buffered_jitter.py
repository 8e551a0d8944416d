"""Every service serves its web and database jitter from block buffers."""

import numpy as np

from repro.fleet.member import FleetMember
from repro.simulator.config import ServiceConfig
from repro.simulator.fastdraw import JITTER, BufferedNormal
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


def test_columnar_member_does_not_wrap_twice():
    for columnar in (False, True):
        member = FleetMember(0, seed=9, columnar=columnar)
        for tier in (member.service.web, member.service.db):
            assert isinstance(tier._rng, BufferedNormal)
            assert type(tier._rng._rng) is np.random.Generator
