"""Round-robin scheduling of background ALS refreshes.

Feedback lands on shards without running matrix completion -- the serve
path never pays for it.  Instead the cluster owner calls
:meth:`RefreshScheduler.tick` from whatever background cadence it has (an
idle loop, a timer, the gaps between arrival bursts), and each tick
warm-starts at most one dirty shard.  The cursor is round-robin over the
shard ring so a permanently chatty tenant cannot starve the refreshes of a
quiet one, and DOWN shards are skipped entirely (their matrices may be
unreachable; they re-enter the rotation on ``mark_up`` or a restart).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List

from ..errors import ClusterError
from .shard import ClusterShard


class RefreshScheduler:
    """Round-robin refreshes across the cluster's shards, one per tick.

    ``down`` is the owner's live set of DOWN shard ids, read on every tick.
    """

    def __init__(self, down: AbstractSet[int]) -> None:
        self._down = down
        self._shards: Dict[int, ClusterShard] = {}
        self._ring: List[int] = []
        self._cursor = 0
        self.ticks = 0
        self.refreshes = 0
        self.skipped_down = 0

    def register(self, shard: ClusterShard) -> None:
        """Add a shard to the refresh rotation."""
        if shard.shard_id in self._shards:
            raise ClusterError(f"shard {shard.shard_id} already scheduled")
        self._shards[shard.shard_id] = shard
        self._ring.append(shard.shard_id)

    def replace(self, shard: ClusterShard) -> None:
        """Swap in a recovered shard object under an existing id.

        Ring position and cursor are preserved -- a restarted shard keeps
        exactly the schedule slot of its previous incarnation.
        """
        if shard.shard_id not in self._shards:
            raise ClusterError(f"cannot replace unscheduled shard {shard.shard_id}")
        self._shards[shard.shard_id] = shard

    def dirty_shards(self) -> List[int]:
        """Ids of shards with observations newer than their last refresh."""
        return [sid for sid in self._ring if self._shards[sid].is_dirty]

    def tick(self) -> List[int]:
        """Refresh the next dirty shard in ring order; returns its id, if any.

        One full lap of the ring per tick at most: shards that are clean
        cost one ``is_dirty`` check, dirty DOWN shards are counted as
        skipped, and the cursor persists across ticks so refreshes rotate
        fairly.
        """
        self.ticks += 1
        n = len(self._ring)
        for _ in range(n):
            shard_id = self._ring[self._cursor]
            self._cursor = (self._cursor + 1) % n
            shard = self._shards[shard_id]
            if not shard.is_dirty:
                continue
            if shard_id in self._down:
                self.skipped_down += 1
                continue
            if shard.refresh():
                self.refreshes += 1
                return [shard_id]
        return []
