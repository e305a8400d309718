"""Tests for the TCNN training loop and predictors built on it."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import predict_cells_in_chunks
from repro.config import TCNNConfig
from repro.core.predictors import TCNNPredictor, TransductiveTCNNPredictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import NeuralNetworkError
from repro.nn.trainer import TCNNTrainer
from repro.plans.featurize import NODE_FEATURE_DIM, _FullBatchCacheMixin, pack_trees
from repro.workloads.matrices import generate_workload
from repro.workloads.spec import JOB_SPEC


def small_config(**overrides):
    base = dict(
        embedding_rank=3, channels=(8,), hidden_units=(8,), dropout=0.0,
        learning_rate=3e-3, batch_size=16, max_epochs=4, convergence_window=2,
    )
    base.update(overrides)
    return TCNNConfig(**base)


def observed_matrix(workload, fill=0.25, seed=0, censor_some=False):
    truth = workload.true_latencies
    n, k = truth.shape
    matrix = WorkloadMatrix(n, k)
    rng = np.random.default_rng(seed)
    for i in range(n):
        matrix.observe(i, 0, float(truth[i, 0]))
    extra = rng.random((n, k)) < fill
    for i in range(n):
        for j in range(1, k):
            if extra[i, j]:
                matrix.observe(i, j, float(truth[i, j]))
    if censor_some:
        for i, j in [(1, 5), (2, 9), (4, 11)]:
            if not matrix.is_observed(i, j):
                matrix.observe_censored(i, j, float(truth[i, j]) * 0.5)
    return matrix


def test_trainer_requires_observations(tiny_workload):
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    with pytest.raises(NeuralNetworkError):
        trainer.fit(WorkloadMatrix(tiny_workload.n_queries, tiny_workload.n_hints))


def test_trainer_fit_reduces_loss(tiny_workload):
    matrix = observed_matrix(tiny_workload)
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config(max_epochs=8))
    losses = trainer.fit(matrix)
    assert losses[-1] <= losses[0]


def test_trainer_predictions_have_matrix_shape_and_are_nonnegative(tiny_workload):
    matrix = observed_matrix(tiny_workload)
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    trainer.fit(matrix)
    predictions = trainer.predict_full(matrix)
    assert predictions.shape == matrix.shape
    assert (predictions >= 0).all()


def test_trainer_handles_censored_cells(tiny_workload):
    matrix = observed_matrix(tiny_workload, censor_some=True)
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    losses = trainer.fit(matrix)
    assert np.isfinite(losses).all()


def test_trainer_warm_start_keeps_model(tiny_workload):
    matrix = observed_matrix(tiny_workload)
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    trainer.fit(matrix)
    first = {name: value.copy() for name, value in trainer.parameters.items()}
    steps = trainer.optimizer.steps
    trainer.fit(matrix)
    # The second fit continued from the first one's weights and Adam state.
    assert trainer.parameters.keys() == first.keys()
    assert trainer.optimizer.steps > steps > 0
    assert not np.array_equal(trainer.parameters["head0.weight"], first["head0.weight"])
    assert len(trainer.loss_history) > 0


def test_trainer_grow_queries(tiny_workload):
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    trainer.grow_queries(tiny_workload.n_queries + 1)
    assert trainer.n_queries == tiny_workload.n_queries + 1


def test_predict_cells_empty_input(tiny_workload):
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    assert trainer.predict_cells([]).shape == (0,)


def test_tcnn_predictor_preserves_observed_values(tiny_workload):
    matrix = observed_matrix(tiny_workload)
    predictor = TCNNPredictor(tiny_workload.feature_store(), small_config())
    estimate = predictor.predict(matrix)
    observed = matrix.mask > 0
    assert np.allclose(estimate[observed], matrix.to_dict()["values"][observed])
    assert predictor.overhead_seconds > 0


def test_transductive_predictor_learns_better_than_untrained_guess(tiny_workload):
    matrix = observed_matrix(tiny_workload, fill=0.35)
    predictor = TransductiveTCNNPredictor(
        tiny_workload.feature_store(), small_config(max_epochs=10)
    )
    estimate = predictor.predict(matrix)
    truth = tiny_workload.true_latencies
    unobserved = matrix.mask == 0
    # Correlation with the truth on unobserved cells should be clearly positive.
    corr = np.corrcoef(np.log1p(estimate[unobserved]), np.log1p(truth[unobserved]))[0, 1]
    assert corr > 0.3


def test_predictor_config_use_embeddings_is_forced(tiny_workload):
    config = small_config()  # use_embeddings defaults to True
    plain = TCNNPredictor(tiny_workload.feature_store(), config)
    assert plain.config.use_embeddings is False
    # Only that one field is rewritten.
    assert dataclasses.replace(plain.config, use_embeddings=True) == config
    transductive = TransductiveTCNNPredictor(tiny_workload.feature_store(), config)
    assert transductive.config.use_embeddings is True


def test_predict_full_matches_per_cell_prediction(tiny_workload):
    matrix = observed_matrix(tiny_workload)
    store = tiny_workload.feature_store()
    trainer = TCNNTrainer(store, tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    trainer.fit(matrix)
    full = trainer.predict_full(matrix)
    n, k = matrix.shape
    cells = [(i, j) for i in range(n) for j in range(k)]
    per_cell = trainer.predict_cells(cells).reshape(n, k)
    np.testing.assert_allclose(full, per_cell, rtol=0, atol=0)


# -- the cells the neural path reads -----------------------------------------------------
def training_cells_from_views(matrix):
    """What ``_training_cells`` read before it went through the kept cells:
    ``n x k`` copies of the matrix views, indexed."""
    observed = matrix.mask > 0
    rows, cols = np.nonzero(observed | matrix.censored_mask)
    values = matrix.values[rows, cols]
    timeouts = matrix.timeout_matrix[rows, cols]
    observed_here = observed[rows, cols]
    targets = np.where(observed_here, values, timeouts)
    return rows, cols, targets, np.where(observed_here, 0.0, timeouts)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 4, 70]), k=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_neural_path_reads_the_kept_cells_like_the_matrix_views(n, k, seed):
    """Drawn writes (completed, censored -- some onto completed cells, which
    keep their latency -- and completed over censored) in bursts of one or
    two rows, so the kept cells are patched as well as rebuilt (70 rows)."""
    rng = np.random.default_rng(seed)
    matrix = WorkloadMatrix(n, k)
    trainer = TCNNTrainer(None, n, k, small_config())
    predictor = TCNNPredictor(None, small_config())
    for _ in range(4):
        for query in rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False):
            for _ in range(int(rng.integers(1, 2 * k + 1))):
                hint, latency = int(rng.integers(k)), float(rng.lognormal())
                if rng.random() < 0.5:
                    matrix.observe(int(query), hint, latency)
                else:
                    matrix.observe_censored(int(query), hint, latency)
        expected = training_cells_from_views(matrix)
        if expected[0].size == 0:
            with pytest.raises(NeuralNetworkError):
                trainer._training_cells(matrix)
        else:
            for mine, theirs in zip(trainer._training_cells(matrix), expected):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        # The predictor keeps every completed cell's latency over the model's.
        predictions = rng.random((n, k))
        predictor._trainer = SimpleNamespace(
            n_queries=n, fit=lambda matrix: [], predict_full=lambda matrix: predictions.copy()
        )
        expected = np.where(matrix.mask > 0, matrix.values, predictions)
        assert predictor._predict(matrix).tobytes() == expected.tobytes()


# -- hostile input at the trainer's front door -----------------------------------------
@pytest.fixture
def untrained(tiny_workload):
    return TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                       tiny_workload.n_hints, small_config())


def test_predict_cells_accepts_an_integer_array(untrained):
    cells = [(0, 0), (1, 2), (39, 48)]
    from_list = untrained.predict_cells(cells)
    assert from_list.shape == (3,)
    np.testing.assert_array_equal(untrained.predict_cells(np.array(cells)), from_list)
    assert untrained.predict_cells(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("cells", [
    [(0, 99)],               # hint past the store: used to be a bare IndexError
    [(40, 0)],
    [(-1, 0)],
    [(0.5, 0)],              # used to die inside SeedSequence
    [(1.0, 2.0)],
    [(True, False)],
    [(0, 1), (2,)],
    [0, 1, 2],
    np.zeros((2, 3), dtype=np.int64),
])
def test_predict_cells_rejects_ids_that_are_not_cells(untrained, cells):
    with pytest.raises(NeuralNetworkError):
        untrained.predict_cells(cells)


def test_predict_cells_answers_the_same_at_any_forward_size(tiny_workload):
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    trainer.fit(observed_matrix(tiny_workload))
    cells = [(0, 0), (1, 2), (3, 4), (5, 6), (7, 8)]
    default = trainer.predict_cells(cells)
    assert (default > 0).all()
    for chunk in (1, 2, 3, 5, 1000):
        np.testing.assert_allclose(
            predict_cells_in_chunks(trainer, cells, chunk), default, rtol=1e-12, atol=0
        )


@pytest.mark.parametrize("extra_rows,extra_cols", [(1, 0), (0, 1), (2, 3)])
def test_fit_refuses_a_matrix_larger_than_the_trainer(tiny_workload, extra_rows, extra_cols):
    trainer = TCNNTrainer(tiny_workload.feature_store(), tiny_workload.n_queries,
                          tiny_workload.n_hints, small_config())
    n, k = tiny_workload.n_queries + extra_rows, tiny_workload.n_hints + extra_cols
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n))
    matrix.observe(n - 1, k - 1, 2.0)  # a cell outside the trainer's
    weights, moments = trainer._theta.copy(), trainer.optimizer.m.copy()
    with pytest.raises(NeuralNetworkError) as raised:
        trainer.fit(matrix)
    # Used to be a bare IndexError from deep inside featurisation.
    assert str((n, k)) in str(raised.value)
    assert str((tiny_workload.n_queries, tiny_workload.n_hints)) in str(raised.value)
    assert np.array_equal(trainer._theta, weights)
    assert np.array_equal(trainer.optimizer.m, moments) and trainer.optimizer.steps == 0
    with pytest.raises(NeuralNetworkError):
        trainer.predict_full(matrix)


class OnePlanWithoutNodes(_FullBatchCacheMixin):
    """Two-node plans everywhere except cell (1, 1), which is all padding."""

    shape = (3, 2)

    def batch(self, cells):
        def tree(q, h):
            count = 1 if (q, h) == (1, 1) else 2
            nodes = np.zeros((count, NODE_FEATURE_DIM))
            nodes[1:, 0] = 1.0 + q + h
            return nodes, np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)

        return pack_trees([tree(int(q), int(h)) for q, h in cells])


def test_a_plan_without_a_real_node_is_refused_by_fit_and_predict_full():
    matrix = WorkloadMatrix(3, 2)
    matrix.observe_batch([0, 1, 2, 0], [0, 0, 0, 1], [1.0, 2.0, 3.0, 4.0])  # not (1, 1)
    trainer = TCNNTrainer(OnePlanWithoutNodes(), 3, 2, small_config())
    for call in (trainer.fit, trainer.predict_full):
        with pytest.raises(NeuralNetworkError, match="at least one unmasked node"):
            call(matrix)


def test_a_matrix_grown_past_the_feature_store_is_refused():
    """The predictor grows its trainer with the matrix, but the store's plans
    stop at the shape it was built for: the next fit refuses the matrix with
    a typed error naming both shapes (it used to raise a bare IndexError)."""
    workload = generate_workload(JOB_SPEC.scaled(0.2), seed=0)
    matrix = observed_matrix(workload)
    predictor = TransductiveTCNNPredictor(workload.feature_store(), small_config())
    predictor.predict(matrix)
    n, k = matrix.shape
    matrix.add_query()
    with pytest.raises(NeuralNetworkError) as refused:
        predictor.predict(matrix)
    assert str((n + 1, k)) in str(refused.value) and str((n, k)) in str(refused.value)
