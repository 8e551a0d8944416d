"""The wide-mix query universe: 128+ templates over the RUBiS schema.

The stock RUBiS blueprints issue 14 query classes.  The wide mix
models the other common shape of a production tier — one application fronting a *long tail* of query classes
(reporting endpoints, per-partner variants, generated ORM accessors) —
by deriving :data:`WIDE_TEMPLATE_COUNT` synthetic templates over the
same RUBiS tables and spreading them across the stock interaction
blueprints.  Every derived value is a pure function of the template
index: two processes building the universe always agree byte for byte,
which the determinism and replay tests pin.

With the wide universe active, one service prices roughly 90-140
query classes per tick instead of 14, so the database tick and the
optimizer's plan surface carry a much larger share of the work.
"""

from __future__ import annotations

from repro.database.engine import DatabaseEngine
from repro.database.queries import QueryTemplate, rubis_query_templates
from repro.simulator.config import ServiceConfig
from repro.simulator.ejb import EJBContainer, RequestBlueprint, rubis_entry_points

__all__ = [
    "WIDE_TEMPLATE_COUNT",
    "wide_entry_points",
    "wide_query_templates",
    "wide_tiers",
]

# Tail size.  Per-tick rounding deactivates a slice of it, so a
# service's active width stays below 128 + 14 on most ticks.
WIDE_TEMPLATE_COUNT = 128

# Predicate columns available per table, matching the index definitions
# rubis_schema/rubis_query_templates already assume.
_TABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "bids": ("item_id", "user_id"),
    "buy_now": ("user_id",),
    "categories": ("category_id",),
    "comments": ("to_user_id",),
    "items": ("item_id", "category_id"),
    "old_items": ("item_id",),
    "regions": ("region_id",),
    "users": ("user_id", "region_id"),
}

# Tiny lookup tables (tens of rows): realistically scanned whole, so
# their tail templates are the unindexed, high-selectivity classes.
# Big-table templates stay indexed — a full scan of the 5M-row bids
# table per execution would overwhelm the service, not stress it.
_DIMENSION_TABLES = frozenset({"categories", "regions"})


def wide_query_templates(n: int = WIDE_TEMPLATE_COUNT) -> dict[str, QueryTemplate]:
    """``n`` synthetic query classes over the RUBiS tables.

    Deterministic by construction — every attribute is a closed-form
    function of the template index ``i``:

    * tables cycle so every table carries a share of the tail;
    * big-table selectivities sweep point lookups through short range
      scans in a fixed permutation, so neighbouring templates don't
      cost alike — capped low enough that the tail's *aggregate*
      volume, not any single class, is what loads the engine;
    * dimension-table templates are unindexed broad scans (the
      optimizer full-scans them, as real plans do for tiny tables);
    * roughly every fifth big-table template is a single-row write
      (the tail also ages statistics).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tables = sorted(_TABLE_COLUMNS)
    templates: dict[str, QueryTemplate] = {}
    for i in range(n):
        table = tables[i % len(tables)]
        columns = _TABLE_COLUMNS[table]
        column = columns[(i // len(tables)) % len(columns)]
        # A fixed permutation of the index (37 is coprime with any n
        # we use) drives the per-template sweeps below.
        frac = ((i * 37) % n) / n
        dimension = table in _DIMENSION_TABLES
        if dimension:
            sel = 0.2 + 0.6 * frac  # scan 20-80% of the tiny table
        else:
            sel = 10.0 ** (-7.0 + 3.5 * frac)  # point..short range
        is_write = not dimension and i % 5 == 3
        name = f"wide_{table}_{i:03d}"
        templates[name] = QueryTemplate(
            name,
            table,
            sel,
            column=column,
            indexed=not dimension,
            is_write=is_write,
            rows_inserted=1 if is_write else 0,
        )
    return templates


def wide_entry_points() -> dict[str, RequestBlueprint]:
    """Stock RUBiS blueprints widened with the synthetic tail.

    The call graph (edges, beans) is untouched, so monitoring
    registries match the stock mix exactly.  Only the ``queries`` maps
    widen: the tail templates are dealt
    round-robin across interaction types with per-request rates high
    enough that typical tick volumes keep most of the tail active.
    """
    base = rubis_entry_points()
    types = list(base)
    extras: dict[str, dict[str, float]] = {t: {} for t in types}
    for k, name in enumerate(wide_query_templates()):
        request_type = types[k % len(types)]
        extras[request_type][name] = 0.1 + 0.03 * (k % 7)
    return {
        request_type: RequestBlueprint(
            request_type,
            dict(blueprint.edges),
            {**blueprint.queries, **extras[request_type]},
        )
        for request_type, blueprint in base.items()
    }


def wide_tiers(config: ServiceConfig) -> tuple[EJBContainer, DatabaseEngine]:
    """Container + engine pair for the wide mix (a pack tier factory).

    The engine keeps the stock templates too: the widened blueprints
    still issue the original 14 classes alongside the tail.
    """
    container = EJBContainer(blueprints=wide_entry_points())
    engine = DatabaseEngine(
        templates={**rubis_query_templates(), **wide_query_templates()},
        buffer_pages=config.db_buffer_pages,
        max_connections=config.db_max_connections,
    )
    return container, engine
