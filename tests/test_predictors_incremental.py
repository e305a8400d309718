"""Tests for the warm-started incremental ALS predictor."""

import numpy as np
import pytest

from repro.config import ALSConfig, ExplorationConfig
from repro.core.explorer import MatrixOracle, OfflineExplorer
from repro.core.policies import RandomPolicy
from repro.core.predictors import RE_ANCHOR_SWEEPS, WARM_REFRESH_SWEEPS, ALSPredictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def make_matrix(n=20, k=8, fill=0.4, seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.gamma(2.0, 1.0, (n, 3)) @ rng.gamma(2.0, 1.0, (k, 3)).T
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), truth[:, 0])
    extra = rng.random((n, k)) < fill
    extra[:, 0] = False
    rows, cols = np.nonzero(extra)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    return matrix, truth


def test_first_predict_is_cold_then_warm_after_mutation():
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10))
    predictor.predict(matrix)
    assert (predictor.cold_solves, predictor.warm_solves) == (1, 0)
    matrix.observe(1, 3, float(truth[1, 3]))
    predictor.predict(matrix)
    assert (predictor.cold_solves, predictor.warm_solves) == (1, 1)


def test_unchanged_matrix_returns_cached_completion_without_solving():
    matrix, _ = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10))
    first = predictor.predict(matrix)
    second = predictor.predict(matrix)
    assert predictor.cold_solves == 1 and predictor.warm_solves == 0
    np.testing.assert_array_equal(first, second)


def test_diverged_warm_factors_fall_back_to_one_cold_solve():
    # Same containment as IncrementalALSRefresher (adapt_drift, seed 84):
    # the typed solver failure is answered with one cold solve, counted cold.
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10))
    predictor.predict(matrix)
    q, h = predictor.factors
    predictor._result.query_factors = np.ones_like(q)
    predictor._result.hint_factors = np.full_like(h, 1e9)
    matrix.observe(1, 3, float(truth[1, 3]))
    completed = predictor.predict(matrix)
    assert np.isfinite(completed).all()
    assert (predictor.cold_solves, predictor.warm_solves) == (2, 0)
    matrix.observe(2, 3, float(truth[2, 3]))
    predictor.predict(matrix)  # and the next refresh is warm again
    assert (predictor.cold_solves, predictor.warm_solves) == (2, 1)


def test_full_solve_every_bounds_drift():
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10), full_solve_every=3)
    rng = np.random.default_rng(1)
    sweeps = []
    for _ in range(8):
        i, j = int(rng.integers(matrix.n_queries)), int(rng.integers(matrix.n_hints))
        matrix.observe(i, j, float(truth[i, j]))
        predictor.predict(matrix)
        sweeps.append(len(predictor._result.objective_trace))
    # full_solve_every=3 is three warm refreshes, *then* one cold re-anchor
    # (a period of four, not "every third"): a warm refresh is one sweep, the
    # first solve runs config.iterations and the re-anchor RE_ANCHOR_SWEEPS.
    assert sweeps == [10, 1, 1, 1, 6, 1, 1, 1]
    assert predictor.cold_solves == 2
    assert predictor.warm_solves == 6


def observe_and_sweeps(predictor, matrix, truth, rng):
    i, j = int(rng.integers(matrix.n_queries)), int(rng.integers(matrix.n_hints))
    matrix.observe(i, j, float(truth[i, j]))
    predictor.predict(matrix)
    return len(predictor._result.objective_trace)


def test_first_solve_and_divergence_fallback_run_config_iterations():
    matrix, truth = make_matrix()
    rng = np.random.default_rng(3)
    predictor = ALSPredictor(ALSConfig(iterations=10), full_solve_every=1)
    predictor.predict(matrix)
    assert len(predictor._result.objective_trace) == 10
    assert observe_and_sweeps(predictor, matrix, truth, rng) == WARM_REFRESH_SWEEPS
    assert observe_and_sweeps(predictor, matrix, truth, rng) == RE_ANCHOR_SWEEPS
    # Diverged warm factors: the cold fallback is a full solve, not a re-anchor.
    q, h = predictor.factors
    predictor._result.query_factors = np.ones_like(q)
    predictor._result.hint_factors = np.full_like(h, 1e9)
    assert observe_and_sweeps(predictor, matrix, truth, rng) == 10
    assert (predictor.cold_solves, predictor.warm_solves) == (3, 1)
    # A different matrix object is a first solve again.
    other, other_truth = make_matrix(seed=1)
    assert observe_and_sweeps(predictor, other, other_truth, rng) == 10
    # Cold on every change runs config.iterations every time.
    cold = ALSPredictor(ALSConfig(iterations=10), warm_start=False)
    cold.predict(matrix)
    assert [observe_and_sweeps(cold, matrix, truth, rng) for _ in range(3)] == [10] * 3


def test_re_anchor_is_capped_at_config_iterations():
    matrix, truth = make_matrix()
    rng = np.random.default_rng(4)
    predictor = ALSPredictor(ALSConfig(iterations=3), full_solve_every=2)
    predictor.predict(matrix)
    sweeps = [observe_and_sweeps(predictor, matrix, truth, rng) for _ in range(6)]
    assert 3 < RE_ANCHOR_SWEEPS and sweeps == [1, 1, 3, 1, 1, 3]


def test_warm_disabled_solves_cold_on_every_change():
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10), warm_start=False)
    predictor.predict(matrix)
    matrix.observe(2, 4, float(truth[2, 4]))
    predictor.predict(matrix)
    assert predictor.cold_solves == 2 and predictor.warm_solves == 0


def test_different_matrix_object_starts_cold():
    matrix_a, _ = make_matrix(seed=0)
    matrix_b, _ = make_matrix(seed=1)
    predictor = ALSPredictor(ALSConfig(iterations=10))
    predictor.predict(matrix_a)
    predictor.predict(matrix_b)
    assert predictor.cold_solves == 2 and predictor.warm_solves == 0


def test_grown_matrix_keeps_warm_factors():
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10))
    predictor.predict(matrix)
    index = matrix.add_query()
    matrix.observe(index, 0, 1.5)
    estimate = predictor.predict(matrix)
    assert estimate.shape == matrix.shape
    assert predictor.warm_solves == 1


def test_reset_forgets_factors():
    matrix, truth = make_matrix()
    predictor = ALSPredictor(ALSConfig(iterations=10))
    predictor.predict(matrix)
    predictor.reset()
    assert predictor.factors is None
    matrix.observe(0, 2, float(truth[0, 2]))
    predictor.predict(matrix)
    assert predictor.cold_solves == 2 and predictor.warm_solves == 0


def test_warm_refresh_tracks_cold_solution():
    matrix, truth = make_matrix(n=30, k=10, fill=0.5)
    warm = ALSPredictor(ALSConfig(iterations=30))
    cold = ALSPredictor(ALSConfig(iterations=30), warm_start=False)
    warm.predict(matrix)
    cold.predict(matrix)
    rng = np.random.default_rng(2)
    for _ in range(5):
        i, j = int(rng.integers(matrix.n_queries)), int(rng.integers(matrix.n_hints))
        matrix.observe(i, j, float(truth[i, j]))
    warm_estimate = warm.predict(matrix)
    cold_estimate = cold.predict(matrix)
    # Observed entries are exact in both; unobserved predictions agree to a
    # few percent relative after the one warm fill-in sweep.
    assert len(warm._result.objective_trace) == WARM_REFRESH_SWEEPS
    denominator = np.maximum(np.abs(cold_estimate), 1e-9)
    assert np.median(np.abs(warm_estimate - cold_estimate) / denominator) < 0.05


def test_constructor_validation():
    with pytest.raises(ExplorationError):
        ALSPredictor(ALSConfig(iterations=5), full_solve_every=0)
    # The warm sweep count is a constant, not an option.
    with pytest.raises(TypeError):
        ALSPredictor(ALSConfig(iterations=5), refresh_iterations=5)


def test_model_free_policies_ignore_configure():
    matrix, truth = make_matrix()
    policy = RandomPolicy()
    OfflineExplorer(matrix, policy, MatrixOracle(truth), ExplorationConfig())
    assert policy.last_prediction is None
