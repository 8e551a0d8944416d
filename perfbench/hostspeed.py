"""How fast the host runs right now, and timings scaled to a fixed speed.

The benchmark's hosts are shared virtual machines whose speed moves in
steps of up to 1.5x every few seconds and drifts further over minutes
as neighbours come and go; both cores step together.  Raw throughput
follows the host, so runs minutes apart disagree by more than any
useful regression bound.

:func:`gauge` runs a fixed pure-interpreter loop for a tenth of a
second and returns its iterations per second.  The runner gauges the
host before the first timed unit and after every unit, and scales each
unit's throughput by the mean of the gauges on either side of it
(:func:`scaled`), so a unit reads what it would on a host at
:data:`REFERENCE_SPEED`.  The loop uses none of the program's code: a
change to the program moves scaled throughput exactly as much as raw
throughput.
"""

from __future__ import annotations

import time

__all__ = ["GAUGE_S", "REFERENCE_SPEED", "gauge", "scaled", "scaled_seconds"]

GAUGE_S = 0.1
# A gauge reading within the range seen on a 2-core 2.1 GHz x86-64
# virtual machine (Python 3.11; 5,000 to 10,000), so scaled numbers read
# like raw ones there.
REFERENCE_SPEED = 6000.0


def gauge(seconds: float = GAUGE_S) -> float:
    """Iterations per second of a fixed loop run for ``seconds``."""
    started = time.perf_counter()
    count = total = 0
    while True:
        for i in range(2000):
            total += i * i
        count += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return count / elapsed


def scaled(rate: float, before: float, after: float) -> float:
    """A rate measured between gauges ``before`` and ``after``, scaled
    to :data:`REFERENCE_SPEED`."""
    return rate * REFERENCE_SPEED * 2.0 / (before + after)


def scaled_seconds(seconds: float, speeds: list[float]) -> float:
    """A duration scaled to :data:`REFERENCE_SPEED`, given gauges taken
    around it."""
    return seconds * (sum(speeds) / len(speeds)) / REFERENCE_SPEED
