"""Database-tier substrate.

The paper's service is database-centric: the database tier contributes
several Table 1 failure modes — suboptimal query plans from stale
statistics, read/write contention on table blocks, buffer contention —
and the corresponding fixes (update statistics, repartition table,
repartition memory, kill hung query).  This package models the
mechanisms behind those failures at the level the paper's monitoring
data needs:

* :mod:`repro.database.schema` — RUBiS-like tables and indexes.
* :mod:`repro.database.statistics` — optimizer statistics with
  staleness (Example 5's ``Xest`` vs ``Xact`` signal).
* :mod:`repro.database.optimizer` — cost-based index-vs-scan plan
  choice driven by *estimated* cardinalities, executed against
  *actual* cardinalities.
* :mod:`repro.database.bufferpool` — multiple memory pools with a
  working-set hit-ratio model and repartitioning [24].
* :mod:`repro.database.locks` — block-contention model plus a wait-for
  graph with cycle (deadlock) detection.
* :mod:`repro.database.engine` — the per-tick execution engine tying
  the above together.
"""
