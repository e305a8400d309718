"""Shard health tracking behind the degraded serving mode.

When a shard is down, the queries routed to it are *not* errors: the
cluster answers them with the tenant's default plan.  The default plan is
what the DBMS would have executed with no hint service at all, so the
paper's no-regression guarantee holds cell-for-cell through an outage --
a degraded answer can never be slower than having no cluster.  What is
lost is only the upside (verified faster plans) and the expected-latency
annotation (the down shard's matrix is unreachable, so it reports ``inf``).

:class:`HealthBoard` is deliberately simple bookkeeping: explicit
``mark_down`` / ``mark_up`` plus a consecutive-failure counter that trips a
shard automatically at a threshold, the way a serving-side circuit breaker
would.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from ..errors import ClusterError


class ShardHealth(enum.Enum):
    """Health state of one shard."""

    UP = "up"
    DOWN = "down"


class HealthBoard:
    """Tracks per-shard health and consecutive serve failures.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls that trip a shard to
        DOWN automatically.  A successful serve (:meth:`record_success`)
        resets the streak.
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self._health: Dict[int, ShardHealth] = {}
        self._streaks: Dict[int, int] = {}

    def register(self, shard_id: int) -> None:
        """Start tracking a shard (initially UP)."""
        if shard_id in self._health:
            raise ClusterError(f"shard {shard_id} already registered")
        self._health[shard_id] = ShardHealth.UP
        self._streaks[shard_id] = 0

    def _check(self, shard_id: int) -> None:
        if shard_id not in self._health:
            raise ClusterError(f"shard {shard_id} not registered")

    def is_up(self, shard_id: int) -> bool:
        """True when the shard may serve verified decisions."""
        self._check(shard_id)
        return self._health[shard_id] is ShardHealth.UP

    def mark_down(self, shard_id: int) -> None:
        """Force a shard into degraded mode (operator action or crash)."""
        self._check(shard_id)
        self._health[shard_id] = ShardHealth.DOWN

    def mark_up(self, shard_id: int) -> None:
        """Restore a shard to service; the failure streak resets."""
        self._check(shard_id)
        self._health[shard_id] = ShardHealth.UP
        self._streaks[shard_id] = 0

    def record_failure(self, shard_id: int) -> bool:
        """Count one serve failure; returns True when the breaker trips."""
        self._check(shard_id)
        self._streaks[shard_id] += 1
        if self._streaks[shard_id] >= self.failure_threshold:
            self._health[shard_id] = ShardHealth.DOWN
            return True
        return False

    def record_success(self, shard_id: int) -> None:
        """Reset the failure streak after a healthy serve."""
        self._check(shard_id)
        self._streaks[shard_id] = 0

    def up_shards(self) -> List[int]:
        """Ids of shards currently UP."""
        return [s for s, h in self._health.items() if h is ShardHealth.UP]

    def down_shards(self) -> List[int]:
        """Ids of shards currently DOWN."""
        return [s for s, h in self._health.items() if h is ShardHealth.DOWN]

