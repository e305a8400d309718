"""Tests for the TCNN and transductive TCNN models."""

import numpy as np
import pytest

from repro.config import TCNNConfig
from repro.errors import NeuralNetworkError
from taped_tcnn import TCNNModel, TransductiveTCNN


@pytest.fixture
def small_config():
    return TCNNConfig(
        embedding_rank=3, channels=(8,), hidden_units=(8,), dropout=0.0,
        batch_size=8, max_epochs=2,
    )


@pytest.fixture
def batch(tiny_workload):
    store = tiny_workload.feature_store()
    return store.batch([(0, 0), (1, 3), (2, 7), (5, 1)])


def test_tcnn_output_shape(batch, small_config):
    model = TCNNModel(small_config)
    out = model(batch)
    assert out.shape == (4,)


def test_tcnn_gradients_reach_every_parameter(batch, small_config):
    model = TCNNModel(small_config)
    out = model(batch)
    (out * out).mean().backward()
    assert all(p.grad is not None for p in model.parameters())


def test_transductive_tcnn_uses_embeddings(batch, small_config):
    model = TransductiveTCNN(10, 8, small_config)
    query_idx = np.array([0, 1, 2, 5])
    hint_idx = np.array([0, 3, 7, 1])
    out_a = model(batch, query_idx, hint_idx)
    # Different query ids must be able to change the prediction.
    out_b = model(batch, np.array([9, 8, 7, 6]), hint_idx)
    assert out_a.shape == (4,)
    assert not np.allclose(out_a.data, out_b.data)


def test_transductive_tcnn_validates_index_lengths(batch, small_config):
    model = TransductiveTCNN(10, 8, small_config)
    with pytest.raises(NeuralNetworkError):
        model(batch, np.array([0, 1]), np.array([0, 1, 2, 3]))


def test_transductive_tcnn_grow_queries(batch, small_config):
    model = TransductiveTCNN(4, 8, small_config)
    model.grow_queries(12)
    assert model.n_queries == 12
    out = model(batch, np.array([11, 10, 9, 8]), np.array([0, 1, 2, 3]))
    assert out.shape == (4,)


def test_transductive_tcnn_dimension_validation(small_config):
    with pytest.raises(NeuralNetworkError):
        TransductiveTCNN(0, 8, small_config)


def test_embedding_parameters_are_trainable(batch, small_config):
    model = TransductiveTCNN(10, 8, small_config)
    out = model(batch, np.array([0, 1, 2, 5]), np.array([0, 3, 7, 1]))
    (out * out).mean().backward()
    assert model.query_embedding.weight.grad is not None
    assert model.hint_embedding.weight.grad is not None
