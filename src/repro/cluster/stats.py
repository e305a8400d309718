"""Cluster-wide telemetry: per-shard reports plus routing counters.

:meth:`ServingCluster.stats <repro.cluster.cluster.ServingCluster.stats>`
builds the report.  ``cluster`` pools every shard's raw recorder
(:meth:`LatencyRecorder.merged` -- the cluster holds them all in-process):
exact totals and the global p50/p99 *exactly* over the pooled recent-sample
windows.  Its ``throughput_qps`` divides by the *sum* of the shards' busy
time: the measured, in-process serial reading.  The facade counters and
topology gauges are read from the metrics registry's cells, their only
store.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Union

from ..serving.stats import ServingStats


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time report over the whole cluster.

    Attributes
    ----------
    n_shards / n_tenants / total_rows:
        Topology: shard count, registered tenants, rows across all shards.
    per_shard:
        Each shard's own :class:`ServingStats`.
    cluster:
        The merged report (exact counters, exact pooled percentiles); its
        ``refresh_failures`` counts background ALS refreshes that failed.
    routed_batches / fan_out:
        Batches routed through the cluster and the average number of
        per-shard sub-batches each one split into.
    degraded_decisions:
        Arrivals answered with the default plan because their shard was
        down.
    shed_decisions:
        Arrivals answered with the default plan by ingress admission
        control before reaching any shard (:meth:`ServingCluster.record_shed`).
    rebalanced_rows:
        Rows migrated between shards by topology changes so far.
    scheduler_ticks / scheduler_refreshes:
        Background refresh activity.
    crashes / restarts:
        Shard processes lost (operator kill or injected fault) and shards
        recovered from their journals.
    queued_feedback / replayed_feedback:
        Observations addressed to a crashed shard that waited in the
        outage queue, and how many of them have been applied by restarts.
    """

    n_shards: int
    n_tenants: int
    total_rows: int
    per_shard: Dict[int, ServingStats]
    cluster: ServingStats
    routed_batches: int
    fan_out: float
    degraded_decisions: int
    rebalanced_rows: int
    scheduler_ticks: int
    scheduler_refreshes: int
    shed_decisions: int = 0
    crashes: int = 0
    restarts: int = 0
    queued_feedback: int = 0
    replayed_feedback: int = 0

    def as_dict(self) -> Dict[str, Union[int, float, Dict]]:
        """Plain nested dictionary for dashboards and benchmark JSON."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["per_shard"] = {
            str(sid): stats.as_dict() for sid, stats in self.per_shard.items()
        }
        out["cluster"] = self.cluster.as_dict()
        return out

    def __str__(self) -> str:
        return (
            f"ClusterStats({self.n_shards} shards, {self.total_rows} rows, "
            f"{self.cluster.decisions} decisions, "
            f"degraded={self.degraded_decisions}, "
            f"shed={self.shed_decisions}, "
            f"rebalanced={self.rebalanced_rows})"
        )

