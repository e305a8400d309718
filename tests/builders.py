"""Builders for test set-ups the library itself never needs.

Each one gives a test a variant of a library object -- a smaller scenario,
a router over given shards, a prediction in small forwards -- through the
object's public surface, so the library keeps one configuration and the
tests keep their small cases.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.router import RendezvousRouter


def router_over(shard_ids):
    """A router whose topology is ``shard_ids``, added in order."""
    router = RendezvousRouter()
    for shard_id in shard_ids:
        router.add_shard(shard_id)
    return router


def predict_cells_in_chunks(trainer, cells, chunk):
    """``trainer.predict_cells`` over consecutive slices of ``chunk`` cells:
    what a forward batch of ``chunk`` cells answers."""
    cells = np.asarray(cells)
    return np.concatenate(
        [trainer.predict_cells(cells[start:start + chunk]) for start in range(0, len(cells), chunk)]
    )


def shrunk(spec, n_queries=None, n_hints=None, batch_size=None):
    """``spec`` with every tenant (joining ones too) resized and every phase's
    batch size replaced: a smaller copy of a library story, same events."""
    def tenant(t):
        return replace(
            t,
            n_queries=t.n_queries if n_queries is None else n_queries,
            n_hints=t.n_hints if n_hints is None else n_hints,
        )

    return replace(
        spec,
        tenants=tuple(tenant(t) for t in spec.tenants),
        phases=tuple(
            p if batch_size is None else replace(p, batch_size=batch_size) for p in spec.phases
        ),
        events=tuple(
            e if e.tenant_spec is None else replace(e, tenant_spec=tenant(e.tenant_spec))
            for e in spec.events
        ),
    )
