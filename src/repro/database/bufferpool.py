"""Multi-pool buffer manager with working-set hit-ratio model.

Table 1 lists "buffer contention" with fix "repartition memory across
various buffers" [24] (adaptive self-tuning memory in DB2).  The model
here: total memory is divided into named pools (data, index, log); each
tick the workload presents a working-set demand per pool, and the hit
ratio follows a concave function of ``pool_pages / demand_pages`` —
small pools relative to demand miss often, and misses surface as I/O
time in the optimizer's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BufferManager", "BufferPool"]

# Peak achievable hit ratio; real pools never hit 100% due to cold and
# conflict misses.
_MAX_HIT_RATIO = 0.995
# Concavity of hit ratio vs. size: sqrt models the classical diminishing
# return of cache size under skewed (Zipf-like) access.
_CONCAVITY = 0.5
# Weight of one demand observation in a pool's demand EMA.
_EMA_ALPHA = 0.2
_EMA_KEEP = 1 - _EMA_ALPHA


@dataclass(slots=True)
class BufferPool:
    """One named region of buffer memory.

    Attributes:
        name: pool identifier (``data``, ``index``, ``log``).
        pages: pages currently assigned to this pool.
        demand_ema: exponentially averaged working-set demand, used by
            the repartitioning fix to rebalance toward pressure.
    """

    name: str
    pages: int
    demand_ema: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.pages < 1:
            raise ValueError(f"pool {self.name}: pages must be >= 1")

    def hit_ratio(self, demand_pages: float) -> float:
        """Hit ratio given this tick's working-set demand in pages."""
        if demand_pages <= 0:
            return _MAX_HIT_RATIO
        ratio = min(1.0, self.pages / demand_pages)
        return _MAX_HIT_RATIO * ratio**_CONCAVITY

    def observe_demand(
        self, demand_pages: float, alpha: float = _EMA_ALPHA
    ) -> None:
        """Fold one demand observation into the EMA."""
        if self.demand_ema == 0.0:
            self.demand_ema = demand_pages
        else:
            self.demand_ema = (1 - alpha) * self.demand_ema + alpha * demand_pages


class BufferManager:
    """Fixed total memory split across pools.

    Args:
        total_pages: total buffer memory in pages.
        shares: initial fraction of memory per pool name; must sum
            to 1.  The default split (70% data / 25% index / 5% log)
            suits the read-heavy RUBiS browse mix.
    """

    def __init__(
        self, total_pages: int = 64_000, shares: dict[str, float] | None = None
    ) -> None:
        if total_pages < 10:
            raise ValueError(f"total_pages must be >= 10, got {total_pages}")
        shares = shares or {"data": 0.70, "index": 0.25, "log": 0.05}
        if abs(sum(shares.values()) - 1.0) > 1e-9:
            raise ValueError(f"pool shares must sum to 1, got {shares}")
        self.total_pages = total_pages
        self.pools = {
            name: BufferPool(name, max(1, int(total_pages * share)))
            for name, share in shares.items()
        }
        self.repartition_count = 0

    def pool(self, name: str) -> BufferPool:
        """The named pool (data / index / log)."""
        if name not in self.pools:
            raise KeyError(f"no buffer pool named {name!r}")
        return self.pools[name]

    def hit_ratios(self, demands: dict[str, float]) -> dict[str, float]:
        """Evaluate and record demand, returning hit ratio per pool.

        Pools without an entry in ``demands`` see zero demand this tick.
        """
        # BufferPool.observe_demand and BufferPool.hit_ratio, inlined
        # (this runs every database tick); same expressions, same
        # operand order, so the same floats.
        out = {}
        demand_get = demands.get
        for name, pool in self.pools.items():
            demand = demand_get(name, 0.0)
            ema = pool.demand_ema
            if ema == 0.0:
                pool.demand_ema = demand
            else:
                pool.demand_ema = _EMA_KEEP * ema + _EMA_ALPHA * demand
            if demand <= 0:
                out[name] = _MAX_HIT_RATIO
            else:
                ratio = pool.pages / demand
                if not ratio < 1.0:
                    ratio = 1.0
                out[name] = _MAX_HIT_RATIO * ratio**_CONCAVITY
        return out

    def set_shares(self, shares: dict[str, float]) -> None:
        """Directly assign pool shares (used by operator-error faults)."""
        if set(shares) != set(self.pools):
            raise ValueError(
                f"shares {set(shares)} do not match pools {set(self.pools)}"
            )
        if any(share <= 0.0 for share in shares.values()):
            raise ValueError(f"pool shares must be positive, got {shares}")
        if abs(sum(shares.values()) - 1.0) > 1e-9:
            raise ValueError(f"pool shares must sum to 1, got {shares}")
        for name, share in shares.items():
            self.pools[name].pages = max(1, int(self.total_pages * share))

    def repartition_by_demand(self, floor_share: float = 0.02) -> dict[str, float]:
        """Rebalance pool sizes proportionally to demand EMAs.

        This is the "repartition memory across various buffers" fix
        [24]: memory flows toward the pools under miss pressure.  Each
        pool keeps at least ``floor_share`` of memory so a quiet pool
        is never starved to zero.

        Returns:
            The new share per pool.
        """
        demands = {
            name: max(pool.demand_ema, 1.0) for name, pool in self.pools.items()
        }
        total_demand = sum(demands.values())
        raw = {name: demand / total_demand for name, demand in demands.items()}
        floored = {name: max(share, floor_share) for name, share in raw.items()}
        norm = sum(floored.values())
        shares = {name: share / norm for name, share in floored.items()}
        self.set_shares(shares)
        self.repartition_count += 1
        return shares
