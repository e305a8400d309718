"""Tests for the exploration simulator and traces."""

import numpy as np
import pytest

from repro.config import ExplorationConfig
from repro.core.policies import GreedyPolicy, LimeQOPolicy, RandomPolicy
from repro.core.simulation import ExplorationSimulator, ExplorationTrace
from repro.errors import ExplorationError


@pytest.fixture(scope="module")
def simulator(tiny_workload):
    return ExplorationSimulator(
        tiny_workload.true_latencies, config=ExplorationConfig(batch_size=5, seed=0)
    )


def test_reference_quantities(tiny_workload, simulator):
    assert simulator.default_latency == pytest.approx(tiny_workload.default_total)
    assert simulator.optimal_latency == pytest.approx(tiny_workload.optimal_total)
    assert simulator.default_latency > simulator.optimal_latency


def test_initial_matrix_reveals_default_column(simulator, tiny_workload):
    matrix = simulator.initial_matrix()
    assert matrix.observed_fraction() == pytest.approx(1.0 / tiny_workload.n_hints)
    assert matrix.workload_latency() == pytest.approx(simulator.default_latency)


def test_trace_structure_and_monotonicity(simulator):
    trace = simulator.run(RandomPolicy(), time_budget=0.5 * simulator.default_latency)
    assert isinstance(trace, ExplorationTrace)
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.times) >= 0)
    assert np.all(np.diff(trace.latencies) <= 1e-9)
    assert trace.latencies[0] == pytest.approx(simulator.default_latency)
    assert trace.final_latency <= simulator.default_latency
    assert trace.final_latency >= simulator.optimal_latency - 1e-9


def test_a_run_on_a_given_matrix_starts_at_the_plans_it_knows(simulator, tiny_workload):
    """A matrix that already holds better plans (a carried-over cache, as in
    Figure 11) serves them before the first step, not the default plans."""
    truth = tiny_workload.true_latencies
    matrix = simulator.initial_matrix()
    for query in range(0, tiny_workload.n_queries, 2):
        best = int(np.argmin(truth[query]))
        matrix.observe(query, best, float(truth[query, best]))
    known = matrix.workload_latency()
    assert known < simulator.default_latency
    trace = simulator.run(RandomPolicy(), time_budget=0.1 * known, matrix=matrix)
    assert trace.latencies[0] == known
    assert trace.latency_at(0.0) == known
    assert trace.default_latency == simulator.default_latency


def test_each_trace_is_named_after_its_policy(simulator):
    budget = 0.25 * simulator.default_latency
    traces = [
        simulator.run(policy, time_budget=budget) for policy in (RandomPolicy(), GreedyPolicy())
    ]
    assert [t.policy_name for t in traces] == ["random", "greedy"]


def test_latency_at_is_a_step_function(simulator):
    trace = simulator.run(RandomPolicy(), time_budget=0.3 * simulator.default_latency)
    assert trace.latency_at(0.0) == pytest.approx(simulator.default_latency)
    midpoint = trace.times[-1] / 2
    assert trace.latency_at(midpoint) >= trace.final_latency
    assert trace.latency_at(trace.times[-1] * 10) == pytest.approx(trace.final_latency)
    with pytest.raises(ExplorationError):
        trace.latency_at(-1.0)


def test_latencies_at_vectorised(simulator):
    trace = simulator.run(RandomPolicy(), time_budget=0.3 * simulator.default_latency)
    checkpoints = [0.0, trace.times[-1] / 2, trace.times[-1]]
    values = trace.latencies_at(checkpoints)
    assert values.shape == (3,)
    assert values[0] >= values[-1]


def test_speedup_and_overhead_accessors(simulator):
    trace = simulator.run(
        LimeQOPolicy(), time_budget=0.5 * simulator.default_latency
    )
    assert trace.latency_at(trace.times[-1]) <= trace.default_latency
    assert trace.overhead_at(0.0) == 0.0
    assert trace.overhead_at(trace.times[-1]) >= 0.0


def test_limeqo_outperforms_random_at_large_budgets(ceb_mini_workload):
    simulator = ExplorationSimulator(
        ceb_mini_workload.true_latencies, config=ExplorationConfig(batch_size=10, seed=0)
    )
    budget = 2.0 * simulator.default_latency
    limeqo = simulator.run(LimeQOPolicy(), time_budget=budget)
    random = simulator.run(RandomPolicy(), time_budget=budget)
    assert limeqo.final_latency <= random.final_latency * 1.05


def test_invalid_latency_matrix_rejected():
    with pytest.raises(ExplorationError):
        ExplorationSimulator(np.ones(4))


def test_latencies_at_rejects_negative_times(simulator):
    trace = simulator.run(RandomPolicy(), max_steps=3)
    with pytest.raises(ExplorationError):
        trace.latencies_at([1.0, -0.5])


def test_latencies_at_matches_scalar_lookup(simulator):
    trace = simulator.run(RandomPolicy(), max_steps=5)
    checkpoints = np.linspace(0.0, trace.total_exploration_time * 1.2, 17)
    vectorised = trace.latencies_at(checkpoints)
    scalar = np.array([trace.latency_at(t) for t in checkpoints])
    np.testing.assert_array_equal(vectorised, scalar)


def test_initial_matrix_uses_batched_observation(simulator):
    matrix = simulator.initial_matrix()
    # One batched mutation, not one version bump per query.
    assert matrix.version == 1
