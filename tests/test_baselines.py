"""Tests for the BayesQO baseline."""

import numpy as np
import pytest

from repro.baselines.bayesqo import BayesQO
from repro.core.explorer import MatrixOracle
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def optimize_every_query(bayes, matrix):
    """Each query its fixed budget, in order, as Figure 18 runs BayesQO:
    ``(time spent, evaluations)`` per query."""
    spent, evaluations = zip(*(bayes.optimize_query(matrix, q) for q in range(matrix.n_queries)))
    return np.array(spent), np.array(evaluations)


def test_bayesqo_respects_per_query_budget(tiny_workload):
    truth = tiny_workload.true_latencies
    budget = 0.5 * float(np.median(truth[:, 0]))
    bayes = BayesQO(
        MatrixOracle(truth),
        tiny_workload.n_hints,
        per_query_budget=budget,
        hint_factors=tiny_workload.hint_factors,
        seed=0,
    )
    matrix = WorkloadMatrix(tiny_workload.n_queries, tiny_workload.n_hints)
    spent, evaluations = optimize_every_query(bayes, matrix)
    assert spent.shape == (tiny_workload.n_queries,)
    assert (spent <= budget + 1e-9).all()
    assert spent.sum() <= budget * tiny_workload.n_queries + 1e-6
    assert (evaluations >= 1).all()


def test_bayesqo_never_regresses_when_default_is_pre_observed(tiny_workload):
    truth = tiny_workload.true_latencies
    matrix = WorkloadMatrix(tiny_workload.n_queries, tiny_workload.n_hints)
    for i in range(tiny_workload.n_queries):
        matrix.observe(i, 0, float(truth[i, 0]))
    bayes = BayesQO(
        MatrixOracle(truth),
        tiny_workload.n_hints,
        per_query_budget=1.0,
        seed=1,
    )
    optimize_every_query(bayes, matrix)
    assert matrix.workload_latency() <= truth[:, 0].sum() + 1e-9


def test_bayesqo_makes_little_progress_with_tiny_budgets(tiny_workload):
    """The qualitative claim of Figure 18."""
    truth = tiny_workload.true_latencies
    matrix = WorkloadMatrix(tiny_workload.n_queries, tiny_workload.n_hints)
    for i in range(tiny_workload.n_queries):
        matrix.observe(i, 0, float(truth[i, 0]))
    tiny_budget = 0.02 * float(np.median(truth[:, 0]))
    bayes = BayesQO(
        MatrixOracle(truth), tiny_workload.n_hints,
        per_query_budget=tiny_budget, seed=2,
    )
    optimize_every_query(bayes, matrix)
    default_total = truth[:, 0].sum()
    optimal_total = truth.min(axis=1).sum()
    achieved_reduction = default_total - matrix.workload_latency()
    possible_reduction = default_total - optimal_total
    assert achieved_reduction < 0.5 * possible_reduction


def test_bayesqo_validation(tiny_workload):
    with pytest.raises(ExplorationError):
        BayesQO(
            MatrixOracle(tiny_workload.true_latencies),
            tiny_workload.n_hints,
            per_query_budget=0.0,
        )


def test_bayesqo_optimize_single_query(tiny_workload):
    truth = tiny_workload.true_latencies
    matrix = WorkloadMatrix(tiny_workload.n_queries, tiny_workload.n_hints)
    matrix.observe(0, 0, float(truth[0, 0]))
    bayes = BayesQO(
        MatrixOracle(truth), tiny_workload.n_hints,
        per_query_budget=float(truth[0].max()) * 3, seed=3,
    )
    spent, evaluations = bayes.optimize_query(matrix, 0)
    assert spent > 0
    assert evaluations >= 1
    assert matrix.row_minima()[0] <= truth[0, 0]
