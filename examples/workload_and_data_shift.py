"""Robustness demos: new queries mid-run, an ETL query, and a data shift.

Reproduces the stories behind Figures 8, 9 and 11 on small synthetic
workloads:

1. an ETL query is added that no hint can speed up -- Greedy keeps probing
   it while LimeQO learns to ignore it,
2. 30% of the queries only arrive after exploration has started,
3. the underlying data shifts (two years of growth), and LimeQO recovers by
   re-using its previously learned hints as a starting point.

Run with:  python examples/workload_and_data_shift.py
"""

from repro import STACK_SPEC, ExplorationSimulator, GreedyPolicy, LimeQOPolicy, generate_workload
from repro.config import ALSConfig, ExplorationConfig
from repro.core.explorer import MatrixOracle, OfflineExplorer
from repro.core.predictors import ALSPredictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.workloads.shift import add_etl_query, apply_data_shift, split_for_workload_shift
from repro.workloads.spec import STACK_2017_SPEC


def etl_demo() -> None:
    print("=== 1. ETL query (Figure 8) ===")
    workload = generate_workload(STACK_SPEC.scaled(0.02), seed=0)
    workload = add_etl_query(workload, latency=0.15 * workload.default_total, seed=0)
    simulator = ExplorationSimulator(
        workload.true_latencies, config=ExplorationConfig(batch_size=5, seed=0)
    )
    budget = 1.5 * workload.default_total
    greedy = simulator.run(GreedyPolicy(), time_budget=budget)
    limeqo = simulator.run(LimeQOPolicy(), time_budget=budget)
    print(f"  default latency            : {workload.default_total:8.1f} s")
    print(f"  Greedy after exploration   : {greedy.final_latency:8.1f} s")
    print(f"  LimeQO after exploration   : {limeqo.final_latency:8.1f} s")
    print("  LimeQO avoids wasting time on the un-improvable ETL query.\n")


def workload_shift_demo() -> None:
    print("=== 2. Workload shift (Figure 9) ===")
    workload = generate_workload(STACK_SPEC.scaled(0.02), seed=1)
    initial, late = split_for_workload_shift(workload, 0.7, seed=1)
    print(f"  {len(initial)} queries available initially, "
          f"{len(late)} more arrive after the first phase")
    first_phase = workload.subset(initial)
    simulator = ExplorationSimulator(
        first_phase.true_latencies, config=ExplorationConfig(batch_size=5, seed=1)
    )
    trace = simulator.run(LimeQOPolicy(), time_budget=first_phase.default_total)
    print(f"  phase 1: initial queries improved from "
          f"{first_phase.default_total:.1f} s to {trace.final_latency:.1f} s")
    # Phase 2: the full workload, explored from scratch by a fresh simulator
    # (a fresh matrix: phase 1's observations are not carried over; see
    # figure9_workload_shift in repro.experiments for the carried-over run).
    full_simulator = ExplorationSimulator(
        workload.true_latencies, config=ExplorationConfig(batch_size=5, seed=1)
    )
    trace_full = full_simulator.run(
        LimeQOPolicy(), time_budget=workload.default_total
    )
    print(f"  phase 2: full workload reaches {trace_full.final_latency:.1f} s "
          f"(default {workload.default_total:.1f} s, "
          f"optimal {workload.optimal_total:.1f} s)\n")


def data_shift_demo() -> None:
    print("=== 3. Data shift (Figure 11) ===")
    old = generate_workload(STACK_2017_SPEC.scaled(0.02), seed=2)
    new = apply_data_shift(old, changed_fraction=0.21, growth_factor=1.26, seed=2)
    config = ExplorationConfig(batch_size=5, seed=2)

    # Explore the 2017 data first.
    old_matrix = ExplorationSimulator(old.true_latencies, config=config).initial_matrix()
    OfflineExplorer(
        old_matrix, LimeQOPolicy(predictor=ALSPredictor(ALSConfig())),
        MatrixOracle(old.true_latencies), config,
    ).run(time_budget=2.0 * old.default_total)

    # After the shift the old best hints are re-verified on the new data and
    # exploration continues from there.
    carried = WorkloadMatrix(new.n_queries, new.n_hints)
    for q in range(new.n_queries):
        carried.observe(q, 0, float(new.true_latencies[q, 0]))
        best = old_matrix.best_hint(q)
        if best not in (None, 0):
            carried.observe(q, best, float(new.true_latencies[q, best]))
    carried_latency = carried.workload_latency()
    explorer = OfflineExplorer(
        carried, LimeQOPolicy(predictor=ALSPredictor(ALSConfig())),
        MatrixOracle(new.true_latencies), config,
    )
    explorer.run(time_budget=0.5 * new.true_latencies[:, 0].sum())
    print(f"  2019 default latency              : {new.true_latencies[:, 0].sum():8.1f} s")
    print(f"  with 2017 hints re-verified       : {carried_latency:8.1f} s")
    print(f"  after 0.5x extra exploration      : {carried.workload_latency():8.1f} s")
    print(f"  2019 oracle optimum               : {new.true_latencies.min(axis=1).sum():8.1f} s")


def main() -> None:
    etl_demo()
    workload_shift_demo()
    data_shift_demo()


if __name__ == "__main__":
    main()
