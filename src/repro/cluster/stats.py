"""Cluster-wide telemetry: mergeable per-shard reports plus routing counters.

Two views of the same traffic:

* ``cluster`` -- the fold of every shard's :class:`ServingStats` through
  :meth:`ServingStats.merge` (the mergeable-counter path any external
  aggregator could run from per-shard summaries alone), with the global
  p50/p99 recomputed *exactly* over the pooled recent-sample windows of
  the raw recorders, since this aggregator holds every shard in-process
  (:meth:`LatencyRecorder.merged`);
* ``parallel_qps`` -- the distributed-parallel reading of throughput:
  shards are independent units, so a deployment's wall-clock for a fanned-
  out batch is its slowest shard, and aggregate throughput is total
  decisions over the *maximum* per-shard busy time (the in-process
  ``cluster.throughput_qps`` divides by the sum instead and is the
  conservative serial reading).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Union

from ..serving.stats import LatencyRecorder, ServingStats
from ..telemetry.runtime import (
    CLUSTER_SHED_TOTAL,
    CRASHES_TOTAL,
    DECISIONS_TOTAL,
    DEGRADED_TOTAL,
    FAN_OUT_TOTAL,
    QUEUED_FEEDBACK_TOTAL,
    REBALANCED_ROWS_TOTAL,
    REPLAYED_FEEDBACK_TOTAL,
    RESTARTS_TOTAL,
    ROUTED_BATCHES_TOTAL,
    ROWS_GAUGE,
    SCHEDULER_REFRESHES_GAUGE,
    SCHEDULER_TICKS_GAUGE,
    SHARDS_GAUGE,
    TENANTS_GAUGE,
)


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
        The merged report (exact counters, exact pooled percentiles).
    parallel_qps:
        Total decisions over the maximum per-shard busy time -- the
        throughput of the same shards deployed as parallel units.
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
    parallel_qps: float
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

    def as_dict(self, registry=None) -> Dict[str, Union[int, float, Dict]]:
        """Plain nested dictionary for dashboards and benchmark JSON.

        With a :class:`~repro.telemetry.MetricsRegistry` passed, the
        dictionary gains a ``telemetry`` section rebuilt from the registry
        (:meth:`from_registry`) plus a ``consistent`` flag over the
        facade counters -- same contract as :meth:`ServingStats.as_dict`.
        The flag deliberately excludes per-shard decision counts: the
        registry is monotonic across shard crash/restart cycles while a
        recovered shard starts a fresh in-memory recorder, so after a
        restart the registry legitimately remembers *more* than the
        dataclass (it is the more durable of the two views).
        """
        out = self._base_dict()
        if registry is not None:
            mirror = ClusterStats.from_registry(registry)
            section = mirror._base_dict()
            section["consistent"] = (
                mirror.routed_batches == self.routed_batches
                and mirror.degraded_decisions == self.degraded_decisions
                and mirror.shed_decisions == self.shed_decisions
                and mirror.crashes == self.crashes
                and mirror.restarts == self.restarts
                and mirror.cluster.decisions >= self.cluster.decisions
            )
            out["telemetry"] = section
        return out

    @classmethod
    def from_registry(cls, registry) -> "ClusterStats":
        """Rebuild the cluster report from the registry alone.

        Per-shard serving stats come from the shard-labeled children of
        the well-known serving metrics; facade counters from the cluster
        counters; topology and scheduler figures from the gauges that
        :meth:`ServingCluster.stats` refreshes.  Percentiles are
        bucket-interpolated (see :meth:`ServingStats.from_registry`).
        """

        def value(name, default=0):
            if name not in registry:
                return default
            return registry.get(name).child.value

        per_shard: Dict[int, ServingStats] = {}
        if DECISIONS_TOTAL in registry:
            for key, _ in registry.get(DECISIONS_TOTAL).children():
                label = key[0]
                if label.isdigit():
                    per_shard[int(label)] = ServingStats.from_registry(
                        registry, shard=label
                    )
        cluster = ServingStats.from_registry(registry)
        # The facade-level shed counter lives outside any shard's recorder
        # (shed arrivals never reach a shard), exactly like the dataclass.
        shed = int(value(CLUSTER_SHED_TOTAL))
        routed = int(value(ROUTED_BATCHES_TOTAL))
        return cls(
            n_shards=int(value(SHARDS_GAUGE, len(per_shard))),
            n_tenants=int(value(TENANTS_GAUGE)),
            total_rows=int(value(ROWS_GAUGE)),
            per_shard=per_shard,
            cluster=cluster,
            parallel_qps=parallel_throughput_qps(per_shard),
            routed_batches=routed,
            fan_out=(value(FAN_OUT_TOTAL) / routed if routed else 0.0),
            degraded_decisions=int(value(DEGRADED_TOTAL)),
            shed_decisions=shed,
            rebalanced_rows=int(value(REBALANCED_ROWS_TOTAL)),
            scheduler_ticks=int(value(SCHEDULER_TICKS_GAUGE)),
            scheduler_refreshes=int(value(SCHEDULER_REFRESHES_GAUGE)),
            crashes=int(value(CRASHES_TOTAL)),
            restarts=int(value(RESTARTS_TOTAL)),
            queued_feedback=int(value(QUEUED_FEEDBACK_TOTAL)),
            replayed_feedback=int(value(REPLAYED_FEEDBACK_TOTAL)),
        )

    def _base_dict(self) -> Dict[str, Union[int, float, Dict]]:
        return {
            "n_shards": self.n_shards,
            "n_tenants": self.n_tenants,
            "total_rows": self.total_rows,
            "per_shard": {
                str(sid): stats.as_dict() for sid, stats in self.per_shard.items()
            },
            "cluster": self.cluster.as_dict(),
            "parallel_qps": self.parallel_qps,
            "routed_batches": self.routed_batches,
            "fan_out": self.fan_out,
            "degraded_decisions": self.degraded_decisions,
            "shed_decisions": self.shed_decisions,
            "rebalanced_rows": self.rebalanced_rows,
            "scheduler_ticks": self.scheduler_ticks,
            "scheduler_refreshes": self.scheduler_refreshes,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "queued_feedback": self.queued_feedback,
            "replayed_feedback": self.replayed_feedback,
        }

    def __str__(self) -> str:
        return (
            f"ClusterStats({self.n_shards} shards, {self.total_rows} rows, "
            f"{self.cluster.decisions} decisions, "
            f"parallel {self.parallel_qps:,.0f} qps, "
            f"degraded={self.degraded_decisions}, "
            f"shed={self.shed_decisions}, "
            f"rebalanced={self.rebalanced_rows})"
        )


def aggregate_shard_stats(shards) -> ServingStats:
    """Merge per-shard reports; percentiles recomputed exactly from samples.

    ``ServingStats.merge`` supplies the counter algebra; because every
    shard's raw :class:`LatencyRecorder` is reachable in-process, the
    approximate merged percentiles are replaced with the exact percentiles
    of the pooled per-decision population (each shard's retained window:
    bounded work however long the shards have been serving).
    """
    shards = list(shards)
    merged = ServingStats.merge(s.stats() for s in shards)
    if merged.decisions == 0:
        return merged
    pooled = LatencyRecorder.merged([s.recorder() for s in shards]).report()
    return dataclasses.replace(
        merged,
        p50_latency_s=pooled.p50_latency_s,
        p99_latency_s=pooled.p99_latency_s,
    )


def parallel_throughput_qps(per_shard: Dict[int, ServingStats]) -> float:
    """Total decisions over the slowest shard's busy time (parallel model)."""
    active = [s for s in per_shard.values() if s.decisions > 0]
    if not active:
        return 0.0
    slowest = max(s.wall_seconds for s in active)
    total = sum(s.decisions for s in active)
    return total / slowest if slowest > 0 else float("inf")
