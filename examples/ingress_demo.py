"""The asyncio front door: independent clients, coalesced batches.

A serving day seen from the edge, in four acts:

1. independent async clients each ``await ingress.serve(query)`` -- the
   ingress coalesces their concurrent requests into the vectorised
   batches the service is fast at, under a 1 ms latency SLO,
2. the same decisions are checked against the synchronous batch path
   (coalescing changes *when* a lookup runs, never *what* it returns),
3. a flash burst blows past the bounded admission queue -- the overflow
   is shed to default plans (the no-regression anchor), never errored,
   and the shed count lands in the serving stats,
4. over a cluster, the refresh scheduler's tick runs as a background
   asyncio task for as long as the ingress is up: no caller-driven cadence.

Run with:  python examples/ingress_demo.py
"""

import asyncio
import time

import numpy as np

from repro import (
    CEB_SPEC,
    ClusterIngress,
    IngressConfig,
    ServiceIngress,
    ServingCluster,
    ServingService,
    generate_workload,
)
from repro.experiments.cluster import populate_cluster
from repro.experiments.serving import explored_matrix


async def closed_loop_client(ingress, queries):
    """One independent client: awaits each of its own requests in turn."""
    latencies = []
    for query in queries:
        t0 = time.perf_counter()
        await ingress.serve(int(query))
        latencies.append(time.perf_counter() - t0)
    return latencies


async def main() -> None:
    workload = generate_workload(CEB_SPEC.scaled(0.25), seed=0)
    matrix = explored_matrix(workload, observed_fraction=0.35, seed=1)
    print(f"Workload: {workload.spec.name}  "
          f"({matrix.n_queries} queries x {matrix.n_hints} hints)")

    # -- Act 1: 64 concurrent clients through the coalescing front door -----
    service = ServingService(matrix)
    rng = np.random.default_rng(1)
    n_clients, per_client = 64, 150
    streams = rng.integers(0, matrix.n_queries, size=(n_clients, per_client))

    config = IngressConfig(max_batch=256, max_wait_s=0.001)
    async with ServiceIngress(service, config) as ingress:
        start = time.perf_counter()
        latencies = await asyncio.gather(
            *(closed_loop_client(ingress, s) for s in streams)
        )
        elapsed = time.perf_counter() - start
        stats = ingress.stats()
    flat = np.concatenate(latencies)
    print(f"\n{n_clients} clients x {per_client} requests, 1 ms SLO:")
    print(f"  throughput : {n_clients * per_client / elapsed:12,.0f} decisions/sec")
    print(f"  p50 / p99  : {np.percentile(flat, 50) * 1e6:8.0f} / "
          f"{np.percentile(flat, 99) * 1e6:.0f} us")
    print(f"  {stats}")

    # -- Act 2: decisions are byte-identical to the sync batch path ---------
    probe = rng.integers(0, matrix.n_queries, size=500)
    sync_service = ServingService(explored_matrix(workload, 0.35, seed=1))
    expected = sync_service.serve_batch(probe)
    async with ServiceIngress(ServingService(
        explored_matrix(workload, 0.35, seed=1)
    ), config) as ingress:
        answers = await ingress.serve_many([int(q) for q in probe])
    identical = (
        [a.hint for a in answers] == expected.hints.tolist()
        and [a.used_default for a in answers] == expected.used_default.tolist()
        and [a.expected_latency for a in answers]
        == expected.expected_latency.tolist()
    )
    print(f"\n500 probed decisions identical to sync serve_batch: {identical}")

    # -- Act 3: a flash burst hits the bounded admission queue --------------
    burst_service = ServingService(explored_matrix(workload, 0.35, seed=1))
    tight = IngressConfig(max_batch=64, max_wait_s=0.001, queue_capacity=256)
    async with ServiceIngress(burst_service, tight) as ingress:
        burst = await ingress.serve_many(
            [int(q) for q in rng.integers(0, matrix.n_queries, size=2000)]
        )
        burst_stats = ingress.stats()
    shed = [a for a in burst if a.shed]
    print(f"\nFlash burst: 2000 arrivals vs queue capacity {tight.queue_capacity}")
    print(f"  answered   : {len(burst)} (every one -- overflow degrades, "
          f"never errors)")
    print(f"  shed       : {len(shed)} to the default plan "
          f"(all defaults: {all(a.used_default for a in shed)})")
    print(f"  visible in : ingress stats shed={burst_stats.shed}, "
          f"serving stats shed={burst_service.stats().shed}")

    # -- Act 4: control loops live on the event loop ------------------------
    cluster = ServingCluster(2, matrix.n_hints)
    populate_cluster(cluster, "ceb", explored_matrix(workload, 0.35, seed=1))
    fast = IngressConfig(refresh_interval_s=0.01)
    async with ClusterIngress(cluster, fast) as ingress:
        await ingress.serve_many([("ceb", q) for q in range(32)])
        await asyncio.sleep(0.06)
        ticks = ingress.stats().background_ticks
    print(f"\nBackground tasks while the cluster ingress was up: {ticks}, "
          f"shard ALS refreshes: {cluster.stats().scheduler_refreshes}")
    print("(refresh cadence lives on the loop, not in caller code)")


if __name__ == "__main__":
    asyncio.run(main())
