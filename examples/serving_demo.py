"""Batched online serving: heavy traffic over the verified plan cache.

Simulates a serving day in three acts:

1. offline exploration reveals part of the workload matrix,
2. the batched service answers a heavy random arrival stream and prints
   its throughput / latency / hit-rate report next to the per-query loop,
3. fresh measurements stream back in and the service picks up the improved
   plans immediately -- no matrix completion runs on the serving side.

Run with:  python examples/serving_demo.py
"""

import time

import numpy as np

from repro import (
    CEB_SPEC,
    LimeQOPolicy,
    MatrixOracle,
    OfflineExplorer,
    PlanCache,
    ServingService,
    WorkloadMatrix,
    generate_workload,
)


def main() -> None:
    workload = generate_workload(CEB_SPEC.scaled(0.25), seed=0)
    print(f"Workload: {workload.spec.name}  "
          f"({workload.n_queries} queries x {workload.n_hints} hints)")

    # -- Act 1: offline exploration fills part of the matrix ----------------
    matrix = WorkloadMatrix(workload.n_queries, workload.n_hints)
    for q in range(workload.n_queries):
        matrix.observe(q, 0, float(workload.true_latencies[q, 0]))
    explorer = OfflineExplorer(
        matrix, LimeQOPolicy(), MatrixOracle(workload.true_latencies)
    )
    explorer.run(time_budget=0.3 * workload.default_total)
    print(f"After exploration: {matrix.observed_fraction():.1%} of cells verified\n")

    # -- Act 2: serve a heavy arrival stream --------------------------------
    service = ServingService(matrix)
    rng = np.random.default_rng(1)
    n_batches, batch_size = 200, 256
    arrivals = rng.integers(0, matrix.n_queries, size=(n_batches, batch_size))

    scalar_cache = PlanCache(matrix)
    start = time.perf_counter()
    for batch in arrivals[:20]:  # the per-query loop is too slow for all 200
        for q in batch:
            scalar_cache.lookup(int(q))
    per_query_qps = (20 * batch_size) / (time.perf_counter() - start)

    for batch in arrivals:
        service.serve_batch(batch)
    stats = service.stats()
    print(f"per-query loop : {per_query_qps:12,.0f} decisions/sec")
    print(f"batched service: {stats.throughput_qps:12,.0f} decisions/sec "
          f"({stats.throughput_qps / per_query_qps:.0f}x)")
    print(f"  {stats}\n")

    # -- Act 3: feedback ----------------------------------------------------
    before = service.serve_all()
    improvable = np.nonzero(before.used_default)[0][:50]
    better_hints = workload.true_latencies[improvable].argmin(axis=1)
    service.observe_batch(
        improvable,
        better_hints,
        workload.true_latencies[improvable, better_hints],
    )
    after = service.serve_all()
    switched = int((before.hints[improvable] != after.hints[improvable]).sum())
    print(f"Fed back {len(improvable)} fresh measurements: "
          f"{switched} queries immediately switched to a verified faster plan")


if __name__ == "__main__":
    main()
