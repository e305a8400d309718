"""Sharded multi-tenant hint serving: the horizontal layer over a shard.

:mod:`repro.serving` made one service fast; this package makes many of
them a cluster, in the spirit of the distributed-parallel analysis framing
of the related work:

* :mod:`repro.cluster.router` -- rendezvous-hash routing of per-tenant
  query namespaces to shards, plus batch splitting / regathering,
* :mod:`repro.cluster.shard` -- shard lifecycle: each shard owns its
  matrix slice, plan cache, and ALS refresher, and rows migrate between
  shards live,
* :mod:`repro.cluster.scheduler` -- round-robin background refresh
  scheduling, one shard per tick, so serving never waits on matrix
  completion,
* :mod:`repro.cluster.failover` -- shard health and the degraded mode
  that falls back to default plans with the no-regression guarantee
  intact,
* :mod:`repro.cluster.stats` -- mergeable cluster-wide telemetry,
* :mod:`repro.cluster.cluster` -- the :class:`ServingCluster` facade.
"""

from .cluster import ServingCluster
from .failover import HealthBoard, ShardHealth
from .router import RendezvousRouter, rendezvous_score, routing_key, split_batch
from .scheduler import RefreshScheduler
from .shard import ClusterShard
from .stats import ClusterStats, aggregate_shard_stats

__all__ = [
    "ServingCluster",
    "HealthBoard",
    "ShardHealth",
    "RendezvousRouter",
    "rendezvous_score",
    "routing_key",
    "split_batch",
    "RefreshScheduler",
    "ClusterShard",
    "ClusterStats",
    "aggregate_shard_stats",
]
