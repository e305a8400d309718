"""A repetitive dashboard workload served through LimeQO's online path.

This example exercises the full system of Figure 2 through the
:class:`~repro.core.limeqo.LimeQO` facade: queries are registered as they
are first seen (with their default-plan latency), offline exploration runs
whenever the "DBMS is idle", and the online path serves every query with a
verified plan (never regressing against the default).  The workload is the
JOB-shaped calibrated matrix (113 queries x 49 hint sets, paper Table 1);
its ground truth stands in for the DBMS through a :class:`MatrixOracle`.

Run with:  python examples/dashboard_workload.py
"""

from repro.config import ALSConfig, ExplorationConfig
from repro.core.explorer import MatrixOracle
from repro.core.limeqo import LimeQO
from repro.core.policies import LimeQOPolicy
from repro.workloads import JOB_SPEC, generate_workload


def main() -> None:
    print("Generating a JOB-shaped dashboard workload...")
    workload = generate_workload(JOB_SPEC, seed=7)
    truth = workload.true_latencies
    print(f"  {workload.n_queries} queries x {workload.n_hints} hint sets")
    print(f"\nDefault workload latency : {workload.default_total:8.2f} s")
    print(f"Oracle-optimal latency   : {workload.optimal_total:8.2f} s "
          f"(headroom {workload.headroom:.2f}x)")

    # Wire the online/offline system: the oracle "executes" a cell by reading
    # the ground truth, the policy is the linear method (censored ALS).
    system = LimeQO(
        n_hints=workload.n_hints,
        oracle=MatrixOracle(truth),
        policy=LimeQOPolicy(als_config=ALSConfig(rank=5, iterations=15)),
        config=ExplorationConfig(batch_size=4, seed=0),
    )
    for i in range(workload.n_queries):
        system.register_query(f"dashboard-{i:03d}", default_latency=float(truth[i, 0]))

    print("\nOffline exploration during idle periods (2x the workload time)...")
    system.explore(time_budget=2.0 * workload.default_total)
    summary = system.summary()
    print(f"  explored cells : {summary['observed_fraction']:.1%} of the matrix")
    print(f"  exploration    : {summary['exploration_time']:.1f} s of offline execution")
    print(f"  model overhead : {summary['overhead_seconds']:.3f} s")

    cache = system.plan_cache()
    served = 0.0
    improved = 0
    for decision in cache.lookup_all():
        served += truth[decision.query, decision.hint]
        improved += int(not decision.used_default)
    print("\nOnline path (verified plan cache):")
    print(f"  queries served with a non-default verified hint: {improved}/{workload.n_queries}")
    print(f"  served workload latency: {served:8.2f} s "
          f"(default {workload.default_total:.2f} s, optimal {workload.optimal_total:.2f} s)")
    print(f"  no-regression guarantee holds: {cache.verify_no_regression(truth)}")


if __name__ == "__main__":
    main()
