"""Cluster experiment: sharded serving vs one service over the union matrix.

Quantifies the three cluster acceptance properties on a CEB-scale
workload:

* **equivalence** -- the 4-shard cluster's decisions (hints, default
  flags, expected latencies) are byte-identical to a single
  :class:`ServingService` holding the union matrix, because sharding
  partitions rows and the Figure 2 rule is row-local;
* **routing cost** -- the in-process cluster's wall (routing, fan-out
  and regather included) over the single service's, measured: a single
  Python process gets no parallel wall-clock win, so this is a slowdown
  and is reported as one;
* **failover** -- with one shard marked down, its queries degrade to
  default plans with no errors while every other query's decision is
  unchanged.

``benchmarks/test_cluster_scaling.py`` prints the table, asserts the
thresholds, and writes ``BENCH_cluster.json``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from ..cluster import ServingCluster
from ..core.plan_cache import DEFAULT_HINT
from ..core.workload_matrix import WorkloadMatrix
from ..errors import ExperimentError
from ..serving.service import ServingService
from ..workloads.matrices import SyntheticWorkload
from .serving import explored_matrix

#: Timed sweeps per topology; the fastest is kept.
TIMING_REPS = 3


def populate_cluster(
    cluster: ServingCluster,
    tenant: str,
    matrix: WorkloadMatrix,
) -> None:
    """Register a tenant for ``matrix``'s queries and feed its observations.

    After this, the cluster's shard-resident rows for ``tenant`` hold
    exactly the observed and censored state of ``matrix`` (verified by
    :meth:`ServingCluster.export_tenant_matrix` round-trips in the tests).
    """
    cluster.add_tenant(tenant, [f"q{i}" for i in range(matrix.n_queries)])
    # The known cells in row-major order: no n x k array is built.
    cells, k = matrix.solver_cells(), matrix.n_hints
    if cells.obs_idx.size:
        cluster.observe_batch(tenant, cells.obs_idx // k, cells.obs_idx % k, cells.obs_vals)
    if cells.cen_idx.size:
        cluster.observe_censored_batch(
            tenant, cells.cen_idx // k, cells.cen_idx % k, cells.cen_vals
        )


def cluster_vs_single_comparison(
    workload: SyntheticWorkload,
    n_shards: int,
    batch_size: int,
    n_batches: int,
) -> Dict[str, float]:
    """Serve one arrival stream through both topologies; compare everything.

    The matrix and the arrivals are those of
    :func:`~repro.experiments.serving.serving_throughput_comparison`.

    Each timed sweep (single service, cluster) runs :data:`TIMING_REPS` times
    and the fastest wall is kept -- minimum-of-repetitions is the standard
    way to suppress scheduler noise when the measured quantity is
    deterministic work.  Decisions are identical across reps, so the
    equivalence checks use the last rep.

    Returns a flat dictionary (benchmark-JSON friendly) with the
    equivalence flag, single and in-process cluster throughputs, the
    failover outcome, and the cluster telemetry.
    """
    if n_shards < 1 or batch_size < 1 or n_batches < 1:
        raise ExperimentError("n_shards, batch_size, n_batches must be >= 1")
    matrix = explored_matrix(workload)
    tenant = "tenant0"
    cluster = ServingCluster(n_shards=n_shards, n_hints=matrix.n_hints)
    populate_cluster(cluster, tenant, matrix)

    rng = np.random.default_rng(1)
    arrivals = rng.integers(0, matrix.n_queries, size=(n_batches, batch_size))

    # Single service over the union matrix: the PR 1 one-shard unit.  Busy
    # time is the service's own recorder (inside serve_batch).
    single = ServingService(matrix.copy())
    single.serve_batch(arrivals[0])  # warm the snapshot outside the clock
    single_seconds = float("inf")
    for _ in range(TIMING_REPS):
        single.reset_stats()
        single_results = [single.serve_batch(batch) for batch in arrivals]
        single_seconds = min(single_seconds, single.stats().wall_seconds)
    single_hints = np.concatenate([d.hints for d in single_results])
    single_default = np.concatenate([d.used_default for d in single_results])
    single_expected = np.concatenate([d.expected_latency for d in single_results])

    # The cluster, healthy: same stream, split / regathered per shard.  The
    # in-process wall (routing included) is timed around the loop; the
    # recorders restart each rep so the reported percentiles cover one
    # warm sweep.
    cluster.serve_batch(tenant, arrivals[0])  # warm every shard snapshot
    cluster_seconds = float("inf")
    for _ in range(TIMING_REPS):
        for shard in cluster.shards.values():
            shard.recorder().reset()
        start = time.perf_counter()
        cluster_results = [
            cluster.serve_batch(tenant, batch) for batch in arrivals
        ]
        cluster_seconds = min(
            cluster_seconds, time.perf_counter() - start
        )
    cluster_hints = np.concatenate([d.hints for d in cluster_results])
    cluster_default = np.concatenate([d.used_default for d in cluster_results])
    cluster_expected = np.concatenate(
        [d.expected_latency for d in cluster_results]
    )

    identical = bool(
        np.array_equal(single_hints, cluster_hints)
        and np.array_equal(single_default, cluster_default)
        and np.array_equal(single_expected, cluster_expected)
    )
    stats = cluster.stats()

    # Failover: kill one shard, re-serve, verify degradation semantics.
    down_shard = cluster.shard_ids[0]
    directory = cluster.directories[tenant]
    cluster.mark_down(down_shard)
    degraded_ok = True
    try:
        for i, batch in enumerate(arrivals[: max(1, n_batches // 4)]):
            decisions = cluster.serve_batch(tenant, batch)
            on_down = directory.shard_of[batch] == down_shard
            sl = slice(i * batch_size, (i + 1) * batch_size)
            if not bool(decisions.used_default[on_down].all()):
                degraded_ok = False
            if not bool(
                (decisions.hints[on_down] == DEFAULT_HINT).all()
            ):
                degraded_ok = False
            # Queries on healthy shards are untouched by the outage.
            if not bool(
                np.array_equal(
                    decisions.hints[~on_down], cluster_hints[sl][~on_down]
                )
            ):
                degraded_ok = False
    except Exception:
        degraded_ok = False
    cluster.mark_up(down_shard)
    after_recovery = cluster.serve_batch(tenant, arrivals[0])
    recovered = bool(
        np.array_equal(after_recovery.hints, single_hints[:batch_size])
    )

    # Live shard addition: only re-routed rows migrate, decisions unchanged.
    cluster.add_shard()
    after_rebalance = cluster.serve_batch(tenant, arrivals[0])
    rebalance_ok = bool(
        np.array_equal(after_rebalance.hints, single_hints[:batch_size])
        and np.array_equal(
            after_rebalance.expected_latency, single_expected[:batch_size]
        )
    )
    degraded_stats = cluster.stats()

    total = arrivals.size
    single_qps = total / single_seconds if single_seconds > 0 else float("inf")
    inprocess_qps = (
        total / cluster_seconds if cluster_seconds > 0 else float("inf")
    )
    return {
        "queries": float(matrix.n_queries),
        "hints": float(matrix.n_hints),
        "n_shards": float(n_shards),
        "batch_size": float(batch_size),
        "decisions": float(total),
        "identical": float(identical),
        "single_qps": single_qps,
        "cluster_inprocess_qps": inprocess_qps,
        "routing_overhead": (
            cluster_seconds / single_seconds
            if single_seconds > 0
            else float("inf")
        ),
        "fan_out": stats.fan_out,
        "p50_latency_us": stats.cluster.p50_latency_s * 1e6,
        "p99_latency_us": stats.cluster.p99_latency_s * 1e6,
        "non_default_fraction": stats.cluster.non_default_fraction,
        "degraded_ok": float(degraded_ok),
        "recovered": float(recovered),
        "rebalance_ok": float(rebalance_ok),
        "degraded_decisions": float(degraded_stats.degraded_decisions),
        "rebalanced_rows": float(degraded_stats.rebalanced_rows),
    }
