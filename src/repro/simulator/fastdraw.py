"""Bit-exact block-buffered RNG draws for pure generator streams.

NumPy's ``Generator.normal(loc, scale, size=n)`` consumes the PCG64
bit stream exactly as ``n`` sequential scalar ``normal(loc, scale)``
calls do (the ziggurat sampler is applied draw by draw either way), so
a stream whose *every* draw uses the same ``(loc, scale)`` can be
prefetched in blocks and served from the buffer — identical values,
identical end state, at a fraction of the per-call cost (one array
fill amortizes the Generator call overhead over the whole block).

That "every draw" condition is the entire contract.  The web and
database tiers qualify: each owns a private generator derived from
``(seed, "web")`` / ``(seed, "db")`` and draws only the per-tick
service-time jitter ``normal(1.0, 0.04)`` from it — no fault, fix, or
scenario code touches those streams (the app tier's stream mixes
Poisson and normal draws and does *not* qualify).  Buffered jitter is
therefore the default: every :class:`MultitierService` builds both
tiers on a :class:`BufferedNormal`, on every execution path.  The
wrapper guards the contract at runtime: a draw with unexpected
parameters raises instead of silently desynchronizing the stream.
The buffered-jitter tests replay twin generators, one scalar and one
buffered, and assert bitwise-identical draws and end states.
"""

from __future__ import annotations

import numpy as np

__all__ = ["JITTER", "BufferedNormal"]

_BLOCK = 256

# The ``(loc, scale)`` of the web and database tiers' service-time
# jitter: the only draws their private streams serve.
JITTER = (1.0, 0.04)


class BufferedNormal:
    """Serve ``normal(loc, scale)`` draws from block prefetches.

    Drop-in for the single call site ``rng.normal(loc, scale)`` on a
    generator whose draws all use the same parameters.  Any call with
    different parameters raises ``RuntimeError`` — the stream would
    otherwise desynchronize from the scalar reference bit stream.

    Args:
        rng: the generator whose stream is being buffered (the wrapper
            owns it from here on; nothing else may draw from it).
        loc / scale: the stream's fixed draw parameters.
        block: draws prefetched per refill.
    """

    __slots__ = ("_rng", "_loc", "_scale", "_block", "_buf", "_pos")

    def __init__(
        self,
        rng: np.random.Generator,
        loc: float,
        scale: float,
        block: int = _BLOCK,
    ) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rng = rng
        self._loc = loc
        self._scale = scale
        self._block = block
        # Python floats: serving one skips a NumPy scalar conversion.
        self._buf: list[float] = []
        self._pos = 0

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One draw from the buffered stream."""
        if loc != self._loc or scale != self._scale:
            raise RuntimeError(
                "BufferedNormal serves a pure "
                f"normal({self._loc}, {self._scale}) stream; a draw "
                f"with ({loc}, {scale}) would desynchronize it"
            )
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._rng.normal(
                self._loc, self._scale, size=self._block
            ).tolist()
            pos = 0
        self._pos = pos + 1
        return buf[pos]
