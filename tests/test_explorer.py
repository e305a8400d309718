"""Tests for Algorithm 1's exploration loop and the execution oracles."""

import numpy as np
import pytest

from repro.config import ALSConfig, ExplorationConfig
from repro.core import explorer as explorer_module
from repro.core.explorer import DatabaseOracle, MatrixOracle, OfflineExplorer
from repro.core.policies import LimeQOPolicy, RandomPolicy
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def truth_matrix(n=15, k=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.gamma(2.0, 2.0, (n, 3)) @ rng.gamma(2.0, 1.0, (k, 3)).T


def warm_matrix(truth):
    matrix = WorkloadMatrix(truth.shape[0], truth.shape[1])
    for i in range(truth.shape[0]):
        matrix.observe(i, 0, float(truth[i, 0]))
    return matrix


def test_matrix_oracle_validation():
    with pytest.raises(ExplorationError):
        MatrixOracle(np.ones(3))
    bad = np.ones((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ExplorationError):
        MatrixOracle(bad)
    with pytest.raises(ExplorationError):
        MatrixOracle(-np.ones((2, 2)))


def test_matrix_oracle_execution_and_censoring():
    truth = truth_matrix()
    oracle = MatrixOracle(truth)
    full = oracle.execute(0, 1)
    assert full.latency == pytest.approx(truth[0, 1])
    censored = oracle.execute(0, 1, timeout=truth[0, 1] / 2)
    assert censored.timed_out
    assert censored.charged_time == pytest.approx(truth[0, 1] / 2)


def test_database_oracle_matches_executor(db_workload):
    oracle = DatabaseOracle(
        db_workload.executor, db_workload.queries, db_workload.hint_sets
    )
    assert oracle.shape == (db_workload.n_queries, db_workload.n_hints)
    result = oracle.execute(0, 1)
    assert result.latency == pytest.approx(db_workload.true_latencies[0, 1], rel=1e-6)
    with pytest.raises(ExplorationError):
        oracle.execute(999, 0)


def test_explorer_step_updates_matrix_and_accounting():
    truth = truth_matrix()
    matrix = warm_matrix(truth)
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=4, seed=0)
    )
    before_known = matrix.known_fraction()
    step = explorer.step()
    assert step is not None
    assert len(step.selected) == 4
    assert matrix.known_fraction() > before_known
    assert step.cumulative_exploration_time == pytest.approx(
        step.exploration_time_delta
    )
    assert explorer.cumulative_exploration_time == pytest.approx(
        step.cumulative_exploration_time
    )
    assert step.workload_latency == pytest.approx(matrix.workload_latency())


def test_explorer_charges_timeouts_for_censored_entries():
    truth = truth_matrix()
    matrix = warm_matrix(truth)
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=6, seed=1)
    )
    step = explorer.step()
    for (query, hint), result, timeout in zip(
        step.selected, step.results, step.timeouts_used
    ):
        if result.timed_out:
            assert timeout is not None
            assert matrix.is_censored(query, hint)
            assert result.charged_time == pytest.approx(timeout)
        else:
            assert matrix.is_observed(query, hint)
    assert step.num_censored == sum(r.timed_out for r in step.results)


def test_run_respects_time_budget():
    truth = truth_matrix()
    matrix = warm_matrix(truth)
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=2, seed=0)
    )
    budget = truth[:, 0].sum() * 0.2
    steps = explorer.run(time_budget=budget)
    assert steps
    # The budget may be exceeded by at most one step's worth of execution.
    assert explorer.cumulative_exploration_time <= budget + steps[-1].exploration_time_delta


def test_run_stops_when_matrix_is_exhausted():
    truth = truth_matrix(n=4, k=3)
    matrix = warm_matrix(truth)
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=4, seed=0)
    )
    explorer.run(time_budget=float("inf"), max_steps=100)
    assert explorer.step() is None
    assert matrix.known_fraction() == 1.0


def test_run_without_a_step_limit_stops_at_max_steps(monkeypatch):
    monkeypatch.setattr(explorer_module, "MAX_STEPS", 3)
    truth = truth_matrix()
    explorer = OfflineExplorer(
        warm_matrix(truth), RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=1, seed=0)
    )
    assert len(explorer.run(time_budget=float("inf"))) == 3
    assert explorer.step() is not None  # cells were left: the cap ended the run
    assert len(explorer.run(time_budget=float("inf"), max_steps=5)) == 5


def test_run_validates_budget():
    truth = truth_matrix(n=4, k=3)
    explorer = OfflineExplorer(
        warm_matrix(truth), RandomPolicy(), MatrixOracle(truth), ExplorationConfig()
    )
    with pytest.raises(ExplorationError):
        explorer.run(time_budget=0.0)


def test_workload_latency_never_increases_during_exploration():
    truth = truth_matrix(n=20, k=8, seed=5)
    matrix = warm_matrix(truth)
    policy = LimeQOPolicy(als_config=ALSConfig(rank=2, iterations=5))
    explorer = OfflineExplorer(
        matrix, policy, MatrixOracle(truth), ExplorationConfig(batch_size=3, seed=2)
    )
    latencies = [matrix.workload_latency()]
    for _ in range(10):
        step = explorer.step()
        if step is None:
            break
        latencies.append(step.workload_latency)
    assert all(b <= a + 1e-9 for a, b in zip(latencies, latencies[1:]))


def test_recommend_hints_defaults_and_improves():
    truth = truth_matrix(n=10, k=5, seed=7)
    matrix = warm_matrix(truth)
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(truth), ExplorationConfig(batch_size=5, seed=3)
    )
    explorer.run(max_steps=8)
    hints = explorer.recommend_hints()
    assert len(hints) == 10
    for query, hint in enumerate(hints):
        # The recommended hint is never worse than the default *as observed*.
        assert matrix.value(query, hint) <= matrix.value(query, 0) + 1e-9


def test_matrix_oracle_execute_many_matches_scalar_path():
    truth = truth_matrix()
    oracle = MatrixOracle(truth)
    queries = [0, 1, 2, 3]
    hints = [1, 2, 0, 4]
    timeouts = [None, float(truth[1, 2]) / 2, 0.0, float(truth[3, 4]) * 2]
    batched = oracle.execute_many(queries, hints, timeouts)
    for (q, h, t), result in zip(zip(queries, hints, timeouts), batched):
        scalar = oracle.execute(q, h, timeout=t)
        assert result.latency == scalar.latency
        assert result.timed_out == scalar.timed_out
        assert result.charged_time == scalar.charged_time


def test_matrix_oracle_execute_many_without_timeouts():
    truth = truth_matrix()
    oracle = MatrixOracle(truth)
    results = oracle.execute_many([0, 1], [1, 2])
    assert not any(r.timed_out for r in results)
    assert results[0].latency == pytest.approx(truth[0, 1])
    assert oracle.execute_many([], []) == []


def test_matrix_oracle_execute_many_validation():
    oracle = MatrixOracle(truth_matrix())
    with pytest.raises(ExplorationError):
        oracle.execute_many([0, 1], [1])
    with pytest.raises(ExplorationError):
        oracle.execute_many([0], [1], timeouts=[1.0, 2.0])


def test_database_oracle_execute_many_loop_fallback(db_workload):
    oracle = DatabaseOracle(
        db_workload.executor, db_workload.queries, db_workload.hint_sets
    )
    results = oracle.execute_many([0, 1], [1, 0])
    assert len(results) == 2
    scalar = oracle.execute(0, 1)
    assert results[0].latency == pytest.approx(scalar.latency, rel=1e-6)


def test_row_distinct_chunking_preserves_order():
    chunks = OfflineExplorer._row_distinct_chunks(
        [(0, 1), (1, 2), (0, 3), (2, 1), (2, 4)]
    )
    assert chunks == [[(0, 1), (1, 2)], [(0, 3), (2, 1)], [(2, 4)]]
    assert OfflineExplorer._row_distinct_chunks([]) == []
    flat = [pair for chunk in chunks for pair in chunk]
    assert flat == [(0, 1), (1, 2), (0, 3), (2, 1), (2, 4)]


def test_step_with_scalar_only_oracle_matches_batched():
    """An oracle without execute_many must still work (protocol fallback)."""

    class ScalarOnlyOracle:
        def __init__(self, truth):
            self._inner = MatrixOracle(truth)

        def execute(self, query, hint, timeout=None):
            return self._inner.execute(query, hint, timeout=timeout)

    truth = truth_matrix()
    results = {}
    for oracle in (MatrixOracle(truth), ScalarOnlyOracle(truth)):
        matrix = warm_matrix(truth)
        explorer = OfflineExplorer(
            matrix, RandomPolicy(), oracle, ExplorationConfig(batch_size=4, seed=0)
        )
        steps = explorer.run(max_steps=5)
        results[type(oracle).__name__] = (
            [s.selected for s in steps],
            [s.cumulative_exploration_time for s in steps],
        )
    assert results["MatrixOracle"] == results["ScalarOnlyOracle"]
