"""Cluster-wide telemetry: per-shard reports plus routing counters.

``cluster`` pools every shard's raw recorder (:meth:`LatencyRecorder.merged`
-- this aggregator holds them all in-process): exact totals and the global
p50/p99 *exactly* over the pooled recent-sample windows.  Its
``throughput_qps`` divides by the *sum* of the shards' busy time: the
measured, in-process serial reading.  The facade counters and topology
gauges are read from the metrics registry's cells, their only store
(:func:`cluster_report`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Union

from ..serving.stats import LatencyRecorder, ServingStats
from ..telemetry.runtime import DECISIONS_TOTAL, ClusterMetrics


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

    @classmethod
    def from_registry(cls, registry) -> "ClusterStats":
        """Read the cluster report from the registry alone.

        Per-shard serving stats come from the shard-labeled children of
        the well-known serving metrics -- totals over each label's whole
        life, so they keep counting across a shard's crash and recovery
        where :meth:`ServingCluster.stats` restarts that shard's view from
        zero -- with bucket-interpolated percentiles (see
        :meth:`ServingStats.from_registry`).  Everything else is
        :func:`cluster_report` over the registry's facade cells, exactly as
        :meth:`ServingCluster.stats` reads them.
        """
        per_shard: Dict[int, ServingStats] = {}
        if DECISIONS_TOTAL in registry:
            for key, _ in registry.get(DECISIONS_TOTAL).children():
                label = key[0]
                if label.isdigit():
                    per_shard[int(label)] = ServingStats.from_registry(
                        registry, shard=label
                    )
        return cluster_report(
            ClusterMetrics(registry), per_shard, ServingStats.from_registry(registry)
        )

    def __str__(self) -> str:
        return (
            f"ClusterStats({self.n_shards} shards, {self.total_rows} rows, "
            f"{self.cluster.decisions} decisions, "
            f"degraded={self.degraded_decisions}, "
            f"shed={self.shed_decisions}, "
            f"rebalanced={self.rebalanced_rows})"
        )


def aggregate_shard_stats(shards) -> ServingStats:
    """One report over every shard: exact totals, exact pooled percentiles.

    Every shard's raw :class:`LatencyRecorder` is reachable in-process, so
    the percentiles are those of the pooled per-decision population (each
    shard's retained window: bounded work however long the shards have
    been serving), not an approximation from per-shard summaries.
    """
    return LatencyRecorder.merged([s.recorder() for s in shards]).report()


def cluster_report(
    cells: ClusterMetrics, per_shard: Dict[int, ServingStats], cluster: ServingStats
) -> ClusterStats:
    """Build the report around the given serving views.

    The one place a :class:`ClusterStats` is constructed: the facade
    counters (the shed one included: shed arrivals never reach a shard) and
    the topology / scheduler gauges :meth:`ServingCluster.stats` refreshes
    come from ``cells``, so the live report and
    :meth:`ClusterStats.from_registry` cannot disagree on them.
    """
    routed = int(cells.routed_batches.value)
    return ClusterStats(
        # A registry only services wrote to has no topology gauge yet.
        n_shards=int(cells.shards.value) or len(per_shard),
        n_tenants=int(cells.tenants.value),
        total_rows=int(cells.total_rows.value),
        per_shard=per_shard,
        cluster=cluster,
        routed_batches=routed,
        fan_out=cells.fan_out.value / routed if routed else 0.0,
        degraded_decisions=int(cells.degraded.value),
        shed_decisions=int(cells.shed.value),
        rebalanced_rows=int(cells.rebalanced_rows.value),
        scheduler_ticks=int(cells.scheduler_ticks.value),
        scheduler_refreshes=int(cells.scheduler_refreshes.value),
        crashes=int(cells.crashes.value),
        restarts=int(cells.restarts.value),
        queued_feedback=int(cells.queued_feedback.value),
        replayed_feedback=int(cells.replayed_feedback.value),
    )
