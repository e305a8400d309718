"""Integration tests: the whole pipeline, through the simulator and the facade."""

import pytest

from repro.config import ALSConfig, ExplorationConfig
from repro.core.explorer import MatrixOracle, OfflineExplorer
from repro.core.limeqo import LimeQO
from repro.core.plan_cache import PlanCache
from repro.core.policies import GreedyPolicy, LimeQOPolicy, RandomPolicy
from repro.core.simulation import ExplorationSimulator
from repro.workloads.shift import add_etl_query


def test_full_pipeline_on_synthetic_workload(ceb_mini_workload):
    """Warm start -> explore -> serve with no regressions, near optimal."""
    workload = ceb_mini_workload
    simulator = ExplorationSimulator(
        workload.true_latencies, config=ExplorationConfig(batch_size=10, seed=0)
    )
    trace = simulator.run(LimeQOPolicy(), time_budget=4.0 * workload.default_total)

    assert trace.final_latency < workload.default_total
    # Within 2x of the oracle after 4x the default workload time.
    assert trace.final_latency <= workload.optimal_total * 2.0

    # Serve the result through the plan cache; nothing regresses.
    matrix = simulator.initial_matrix()
    explorer = OfflineExplorer(
        matrix, LimeQOPolicy(), MatrixOracle(workload.true_latencies),
        ExplorationConfig(batch_size=10, seed=0),
    )
    explorer.run(time_budget=2.0 * workload.default_total)
    cache = PlanCache(matrix)
    assert cache.verify_no_regression(workload.true_latencies)
    served = sum(
        workload.true_latencies[d.query, d.hint] for d in cache.lookup_all()
    )
    assert served <= workload.default_total * 1.01


def test_full_pipeline_through_the_limeqo_facade(tiny_workload):
    """Register -> explore -> serve through :class:`LimeQO`, as a deployment
    drives it: rows arrive by name with their default latency, and the
    verified plan cache beats the default without regressing any query."""
    truth = tiny_workload.true_latencies
    system = LimeQO(
        n_hints=tiny_workload.n_hints,
        oracle=MatrixOracle(truth),
        policy=LimeQOPolicy(als_config=ALSConfig(rank=3, iterations=8)),
        config=ExplorationConfig(batch_size=4, seed=0),
    )
    for i in range(tiny_workload.n_queries):
        assert system.register_query(f"q{i}", default_latency=float(truth[i, 0])) == i
    assert system.register_query("q0") == 0  # a known name is not a new row
    default_total = tiny_workload.default_total
    system.explore(time_budget=2.0 * default_total)

    cache = system.plan_cache()
    hints = cache.snapshot().hints.tolist()
    served = sum(truth[i, h] for i, h in enumerate(hints))
    assert served < default_total
    assert cache.verify_no_regression(truth)
    assert system.lookup("q3").hint == hints[3]


def test_limeqo_beats_greedy_with_etl_query(tiny_workload):
    """Figure 8's story: Greedy keeps re-probing the hopeless ETL query."""
    workload = add_etl_query(
        tiny_workload, latency=0.3 * tiny_workload.default_total, seed=0
    )
    simulator = ExplorationSimulator(
        workload.true_latencies, config=ExplorationConfig(batch_size=5, seed=0)
    )
    budget = 1.5 * workload.default_total
    limeqo = simulator.run(LimeQOPolicy(), time_budget=budget)
    greedy = simulator.run(GreedyPolicy(), time_budget=budget)
    assert limeqo.final_latency <= greedy.final_latency * 1.02


def test_policies_converge_to_optimal_with_exhaustive_budget(tiny_workload):
    simulator = ExplorationSimulator(
        tiny_workload.true_latencies, config=ExplorationConfig(batch_size=20, seed=0)
    )
    budget = tiny_workload.exhaustive_exploration_time() * 2
    for policy in (RandomPolicy(), LimeQOPolicy()):
        trace = simulator.run(policy, time_budget=budget, max_steps=10_000)
        # Having explored (or censored) everything, the served latency equals
        # the oracle optimum.
        assert trace.final_latency == pytest.approx(
            tiny_workload.optimal_total, rel=1e-6
        )


def test_workload_shift_rows_can_be_added_mid_run(tiny_workload):
    truth = tiny_workload.true_latencies
    n, k = truth.shape
    oracle = MatrixOracle(truth)
    system = LimeQO(
        n_hints=k, oracle=oracle,
        policy=LimeQOPolicy(als_config=ALSConfig(rank=3, iterations=8)),
        config=ExplorationConfig(batch_size=5, seed=0),
    )
    for i in range(n // 2):
        system.register_query(f"q{i}", default_latency=float(truth[i, 0]))
    system.explore(time_budget=0.5 * truth[: n // 2, 0].sum())
    latency_before = system.workload_latency()
    for i in range(n // 2, n):
        system.register_query(f"q{i}", default_latency=float(truth[i, 0]))
    system.explore(time_budget=0.5 * truth[:, 0].sum())
    assert system.num_queries == n
    assert system.workload_latency() <= latency_before + truth[n // 2:, 0].sum() + 1e-9
