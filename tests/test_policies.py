"""Tests for the exploration policies."""

import numpy as np
import pytest

from repro.config import ALSConfig
from repro.core.policies import (
    BaoCachePolicy,
    GreedyPolicy,
    LimeQOPlusPolicy,
    LimeQOPolicy,
    QOAdvisorPolicy,
    RandomPolicy,
)
from repro.core.predictors import ALSPredictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def matrix_from(truth, observe_default=True):
    truth = np.asarray(truth, dtype=float)
    matrix = WorkloadMatrix(truth.shape[0], truth.shape[1])
    if observe_default:
        for i in range(truth.shape[0]):
            matrix.observe(i, 0, float(truth[i, 0]))
    return matrix


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_truth():
    rng = np.random.default_rng(3)
    q = rng.gamma(2.0, 1.0, (20, 3))
    h = rng.gamma(2.0, 1.0, (8, 3))
    return q @ h.T


def test_random_policy_selects_unknown_cells(small_truth, rng):
    matrix = matrix_from(small_truth)
    picks = RandomPolicy().select(matrix, 10, rng)
    assert len(picks) == 10
    assert len(set(picks)) == 10
    for query, hint in picks:
        assert matrix.unknown_mask()[query, hint]


def test_random_policy_handles_exhausted_matrix(rng):
    matrix = WorkloadMatrix(2, 2)
    for i in range(2):
        for j in range(2):
            matrix.observe(i, j, 1.0)
    assert RandomPolicy().select(matrix, 5, rng) == []


def test_greedy_policy_prefers_longest_running_queries(small_truth, rng):
    matrix = matrix_from(small_truth)
    picks = GreedyPolicy().select(matrix, 5, rng)
    picked_rows = [q for q, _ in picks]
    minima = matrix.row_minima()
    worst_rows = set(np.argsort(-minima)[:5].tolist())
    assert set(picked_rows) == worst_rows


def test_qo_advisor_selects_lowest_cost_cells(small_truth, rng):
    matrix = matrix_from(small_truth)
    costs = np.full(small_truth.shape, 100.0)
    costs[3, 4] = 1.0
    costs[7, 2] = 2.0
    picks = QOAdvisorPolicy(costs).select(matrix, 2, rng)
    assert picks == [(3, 4), (7, 2)]


def test_qo_advisor_validates_cost_matrix(small_truth, rng):
    with pytest.raises(ExplorationError):
        QOAdvisorPolicy(np.ones(5))
    policy = QOAdvisorPolicy(np.ones((20, 3)))
    with pytest.raises(ExplorationError):
        policy.select(matrix_from(small_truth), 2, rng)


def test_bao_cache_selects_lowest_predicted_cells(small_truth, rng):
    matrix = matrix_from(small_truth)
    policy = BaoCachePolicy(ALSPredictor(ALSConfig(rank=2, iterations=5)))
    picks = policy.select(matrix, 4, rng)
    assert len(picks) == 4
    assert policy.last_prediction is not None
    for query, hint in picks:
        assert matrix.unknown_mask()[query, hint]


def test_limeqo_policy_targets_predicted_improvements(small_truth, rng):
    matrix = matrix_from(small_truth)
    # Observe a few off-default cells so ALS has signal.
    for i in range(0, 20, 4):
        matrix.observe(i, 3, float(small_truth[i, 3]))
    policy = LimeQOPolicy(als_config=ALSConfig(rank=2, iterations=8))
    picks = policy.select(matrix, 6, rng)
    assert 0 < len(picks) <= 6
    assert policy.last_prediction.shape == matrix.shape
    for query, hint in picks:
        assert matrix.unknown_mask()[query, hint]
    assert policy.overhead_seconds > 0


def test_limeqo_policy_random_fill_can_be_disabled(rng):
    # Construct a matrix where no improvement is predicted: single column.
    truth = np.ones((5, 2))
    matrix = matrix_from(truth)
    for i in range(5):
        matrix.observe(i, 1, 1.0)
    policy = LimeQOPolicy(als_config=ALSConfig(rank=1, iterations=3))
    assert policy.select(matrix, 3, rng) == []


def test_limeqo_plus_is_limeqo_with_a_different_predictor(small_truth, rng):
    matrix = matrix_from(small_truth)
    policy = LimeQOPlusPolicy(predictor=ALSPredictor(ALSConfig(rank=2, iterations=5)))
    picks = policy.select(matrix, 3, rng)
    assert policy.name == "limeqo+"
    for query, hint in picks:
        assert matrix.unknown_mask()[query, hint]


def test_policies_never_pick_duplicate_cells_within_a_batch(small_truth, rng):
    matrix = matrix_from(small_truth)
    for policy in (RandomPolicy(), GreedyPolicy(), LimeQOPolicy(als_config=ALSConfig(rank=2, iterations=5))):
        picks = policy.select(matrix, 8, np.random.default_rng(1))
        assert len(picks) == len(set(picks))
