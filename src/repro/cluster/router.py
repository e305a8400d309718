"""Rendezvous-hash routing of namespaced query keys to shards.

Every query in the cluster is identified by a *routing key*
``"tenant/query_name"`` -- the tenant prefix keeps workloads (millions of
users means many workloads) in disjoint namespaces even when their query
names collide.  Keys are mapped to shards with rendezvous (highest-random-
weight) hashing: each ``(key, shard)`` pair gets a deterministic 64-bit
score from BLAKE2b and the key lives on the highest-scoring shard.

Rendezvous hashing is what makes live rebalancing cheap: when a shard is
added, a key either keeps its old shard or moves to the *new* shard
(whichever existing shard scored highest still scores highest among the old
set), so only ~``1/(n+1)`` of the rows migrate and none shuffle between old
shards.  That minimal-disruption property is asserted by a hypothesis test
in ``tests/test_cluster.py``.

The scoring hash is :func:`hashlib.blake2b`, not Python's built-in
``hash`` -- the built-in is salted per process, which would re-route every
key on restart.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ClusterError

#: `split_batch` keeps one count per shard id up to the largest it is given.
SHARD_ID_LIMIT = 2**20


def routing_key(tenant: str, name: str) -> str:
    """The cluster-wide identifier of one tenant's query."""
    if not tenant or "/" in tenant:
        raise ClusterError(
            f"tenant id must be non-empty and must not contain '/', got {tenant!r}"
        )
    return f"{tenant}/{name}"


def rendezvous_score(key: str, shard_id: int) -> int:
    """Deterministic 64-bit score of a (key, shard) pair."""
    digest = hashlib.blake2b(
        f"{key}|shard:{shard_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RendezvousRouter:
    """Maps routing keys to shard ids; stable under shard addition.

    The router is pure routing state: it knows the shard id set and nothing
    about matrices or services.  Assignments are cached per key (the score
    loop is Python-level) and the cache is dropped whenever the topology
    changes.  The topology maps each shard id, in insertion order, to its
    ``b"|shard:<id>"`` suffix: the score loop encodes a key once, appends
    each suffix, and compares the 8-byte big-endian digests as bytes, the
    way :func:`rendezvous_score`'s integers compare.
    """

    def __init__(self, shard_ids: Iterable[int] = ()) -> None:
        self._suffixes: Dict[int, bytes] = {}
        self._cache: Dict[str, int] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    @property
    def shard_ids(self) -> List[int]:
        """Current topology (insertion order)."""
        return list(self._suffixes)

    @property
    def n_shards(self) -> int:
        """Number of shards in the topology."""
        return len(self._suffixes)

    def add_shard(self, shard_id: int) -> None:
        """Grow the topology by one shard (invalidates cached assignments)."""
        if shard_id in self._suffixes:
            raise ClusterError(f"shard {shard_id} already routed to")
        shard_id = int(shard_id)
        self._suffixes[shard_id] = f"|shard:{shard_id}".encode("utf-8")
        self._cache.clear()

    def remove_shard(self, shard_id: int) -> None:
        """Shrink the topology (invalidates cached assignments)."""
        if shard_id not in self._suffixes:
            raise ClusterError(f"shard {shard_id} not in the topology")
        del self._suffixes[shard_id]
        self._cache.clear()

    # -- assignment -----------------------------------------------------------
    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` under the current topology."""
        if not self._suffixes:
            raise ClusterError("cannot route with an empty topology")
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        key_bytes = key.encode("utf-8")
        best, top = -1, b""
        for shard_id, suffix in self._suffixes.items():
            score = hashlib.blake2b(key_bytes + suffix, digest_size=8).digest()
            if score > top:  # strict: the first of tied shards wins, as in max()
                best, top = shard_id, score
        self._cache[key] = best
        return best

    def assign(self, keys: Sequence[str]) -> np.ndarray:
        """Shard id per key, as an int64 array parallel to ``keys``."""
        return np.fromiter(
            (self.shard_for(k) for k in keys), dtype=np.int64, count=len(keys)
        )

    def moves_for_new_shard(
        self, keys: Iterable[str], new_shard_id: int
    ) -> List[str]:
        """Keys that would migrate to ``new_shard_id`` if it were added.

        Computed *before* mutating the topology so the caller can stage the
        row migration; by the rendezvous property these are exactly the keys
        whose assignment changes.
        """
        if new_shard_id in self._suffixes:
            raise ClusterError(f"shard {new_shard_id} already routed to")
        moved = []
        for key in keys:
            current = rendezvous_score(key, self.shard_for(key))
            if rendezvous_score(key, new_shard_id) > current:
                moved.append(key)
        return moved


def split_batch(shard_ids: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """Group batch positions by shard: one vectorised sub-batch per shard.

    Given the per-arrival shard assignment of a batch, returns ``(shard_id,
    positions)`` pairs in ascending shard id, where ``positions`` indexes
    into the original batch in arrival order.  Scattering each sub-batch's
    answers back through its ``positions`` regathers the batch -- no
    per-arrival Python loop on either side.  A stable counting split: shard
    ids are small ordinals (a cluster numbers its shards from 0), so one
    ``bincount`` sizes every group and, narrowed to 16 bits, the sort is a
    radix sort.  The count table is as long as the largest id, hence
    ``SHARD_ID_LIMIT``: an id no topology holds is refused, not allocated for.
    """
    shard_ids = np.asarray(shard_ids, dtype=np.int64)
    if shard_ids.ndim != 1:
        raise ClusterError("split_batch expects a 1-D shard assignment array")
    if not shard_ids.size:
        return []
    if shard_ids.min() < 0:
        raise ClusterError("split_batch: shard ids must be >= 0")
    if shard_ids.max() >= SHARD_ID_LIMIT:
        raise ClusterError(
            f"split_batch: shard id {shard_ids.max()} is not an ordinal below {SHARD_ID_LIMIT}"
        )
    counts = np.bincount(shard_ids).tolist()
    # Wider ids sort as they are: the narrowing cast must not wrap.
    keys = shard_ids.astype(np.int16) if len(counts) <= 2**15 else shard_ids
    order = np.argsort(keys, kind="stable")
    groups, start = [], 0
    for shard_id, count in enumerate(counts):
        if count:
            groups.append((shard_id, order[start : start + count]))
            start += count
    return groups
