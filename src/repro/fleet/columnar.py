"""Columnar fleet engine: per-member accelerations + stacked barriers.

``engine="columnar"`` on :func:`repro.fleet.campaign.run_fleet_campaign`
switches the fleet to this layer.  It changes *how* the same numbers
are computed, never the numbers themselves — every acceleration is
individually bit-exact against the object path, which remains the
reference implementation behind ``engine="object"``:

* each member's database engine gets the columnar tick dispatcher
  (:func:`repro.database.columnar.install_columnar_engine`, installed
  by :class:`~repro.fleet.member.FleetMember`), which prices wide
  query mixes as array expressions and delegates narrow or irregular
  (faulted) ticks to the scalar reference loop;
* the serial coordinator's knowledge barrier merges each round's
  contributions as one stacked ragged append
  (:meth:`SharedKnowledgeBase.contribute_batch_coded` over the
  transport vocabulary — the same merge the sharded runner's
  coordinator performs) instead of one ``contribute`` call per entry.

The stacked merge stores identical entries (sequence, source order,
symptom bytes, decoded strings); only the internal vocabulary coding
differs, which no consumer observes.

Block-buffered jitter draws
(:class:`repro.simulator.fastdraw.BufferedNormal`) are not part of this
layer: buffered jitter is the default of every ``MultitierService``,
so both engines and the single-service path run on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fleet.knowledge import SharedKnowledgeBase
from repro.fleet.transport import Vocab, pack_ragged

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.member import FleetRoundStats

__all__ = ["merge_round_columnar"]


def merge_round_columnar(
    knowledge: SharedKnowledgeBase,
    stats_by_index: dict[int, FleetRoundStats],
    n_services: int,
    vocab: Vocab,
) -> None:
    """Append one round's contributions as a single stacked block.

    Entries land in replica order — the serial barrier's merge order —
    with the transport's pre-coded string columns, so the resulting
    log slice is entry-for-entry identical to ``n`` scalar
    ``contribute`` calls.
    """
    vectors: list[np.ndarray] = []
    sources: list[int] = []
    fix_codes: list[int] = []
    origin_codes: list[int] = []
    for i in range(n_services):
        for symptoms, fix_kind, origin in stats_by_index[i].contributions:
            vectors.append(symptoms)
            sources.append(i)
            fix_codes.append(vocab.encode(fix_kind))
            origin_codes.append(vocab.encode(origin))
    if not vectors:
        return
    flat, lengths = pack_ragged(vectors)
    knowledge.contribute_batch_coded(
        flat,
        lengths,
        np.asarray(sources, dtype=np.int64),
        np.asarray(fix_codes, dtype=np.int64),
        np.asarray(origin_codes, dtype=np.int64),
        vocab.words,
    )
