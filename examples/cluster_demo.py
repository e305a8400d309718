"""Sharded multi-tenant serving: a cluster day in four acts.

1. two tenants register their workloads; rendezvous routing spreads their
   rows across four shards with per-tenant namespaces,
2. a heavy mixed-tenant arrival stream fans out as one vectorised
   sub-batch per shard and regathers in arrival order -- decisions are
   identical to a single service over each tenant's union matrix,
3. feedback streams back, the background scheduler runs warm ALS
   refreshes round-robin across dirty shards, one per tick, and a fifth
   shard joins live (only re-routed rows migrate),
4. a shard dies: its queries degrade to default plans (no errors, no
   regressions) until it recovers.

Run with:  python examples/cluster_demo.py
"""

import numpy as np

from repro import ServingCluster, ServingService, generate_workload
from repro.config import ALSConfig
from repro.experiments.cluster import populate_cluster
from repro.experiments.serving import explored_matrix
from repro.workloads.spec import WorkloadSpec


def main() -> None:
    # -- Act 1: two tenants register their workloads -------------------------
    spec_a = WorkloadSpec(name="dash", n_queries=300, default_total=3000.0,
                          optimal_total=1200.0)
    spec_b = WorkloadSpec(name="etl", n_queries=200, default_total=2400.0,
                          optimal_total=1500.0)
    matrix_a = explored_matrix(generate_workload(spec_a, seed=0), 0.3, seed=1)
    matrix_b = explored_matrix(generate_workload(spec_b, seed=1), 0.3, seed=2)

    cluster = ServingCluster(
        n_shards=4,
        n_hints=matrix_a.n_hints,
        als_config=ALSConfig(rank=4, iterations=6, seed=0),
    )
    populate_cluster(cluster, "dash", matrix_a)
    populate_cluster(cluster, "etl", matrix_b)
    for _ in cluster.shard_ids:  # initial cold ALS solves, off the serve path
        cluster.tick()
    print(f"{cluster!r}")
    print("rows per shard:",
          {s.shard_id: s.n_rows for s in cluster.shards.values()})

    # -- Act 2: a heavy mixed-tenant stream ----------------------------------
    rng = np.random.default_rng(7)
    for _ in range(50):
        tenants = np.where(rng.random(512) < 0.6, "dash", "etl")
        queries = np.where(
            tenants == "dash",
            rng.integers(0, matrix_a.n_queries, 512),
            rng.integers(0, matrix_b.n_queries, 512),
        )
        cluster.serve_mixed(list(zip(tenants.tolist(), queries.tolist())))
    single = ServingService(matrix_a.copy())
    same = bool(np.array_equal(cluster.serve_all("dash").hints,
                               single.serve_all().hints))
    stats = cluster.stats()
    print(f"\nserved {stats.cluster.decisions} decisions "
          f"(fan-out {stats.fan_out:.1f} sub-batches/batch, "
          f"hit rate {stats.cluster.non_default_fraction:.1%})")
    print(f"identical to a single service over the union matrix: {same}")

    # -- Act 3: feedback, background refreshes, live shard addition -----------
    improvable = np.nonzero(cluster.serve_all("dash").used_default)[0][:40]
    best = matrix_a.values.argmin(axis=1)[improvable]
    cluster.observe_batch("dash", improvable, best,
                          matrix_a.values[improvable, best])
    dirty = cluster.scheduler.dirty_shards()
    print(f"\ndirty shards after feedback: {dirty}")
    refreshed = [sid for _ in dirty for sid in cluster.tick()]
    print(f"background refreshes run, one per tick: {refreshed} "
          f"(serve batches never waited)")
    before = cluster.serve_all("etl")
    cluster.add_shard()
    after = cluster.serve_all("etl")
    stats = cluster.stats()
    print(f"added shard live: {stats.rebalanced_rows} rows migrated, "
          f"decisions unchanged: {bool(np.array_equal(before.hints, after.hints))}")

    # -- Act 4: failover -------------------------------------------------------
    victim = cluster.shard_ids[0]
    cluster.mark_down(victim)
    degraded = cluster.serve_all("dash")
    on_down = cluster._tenants["dash"].shard_of == victim
    print(f"\nshard {victim} down: {int(on_down.sum())} of "
          f"{matrix_a.n_queries} dash queries degraded to the default plan "
          f"(no errors, no regressions)")
    cluster.mark_up(victim)
    recovered = cluster.serve_all("dash")
    print(f"shard {victim} back up: decisions fully restored: "
          f"{bool(np.array_equal(recovered.hints, single.serve_all().hints))}")
    print(f"\nfinal: {cluster.stats()}")
    assert degraded.used_default[on_down].all()


if __name__ == "__main__":
    main()
