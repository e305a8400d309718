"""Tests for the flat Adam optimizer."""

import numpy as np
import pytest

from repro.config import TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import NeuralNetworkError
from repro.nn.optim import Adam
from repro.nn.trainer import TCNNTrainer
from taped_tcnn import TextbookAdam, parameter


@pytest.mark.parametrize(
    "optimizer_cls,kwargs", [pytest.param(Adam, {"lr": 0.2}, id="Adam-kwargs1")]
)
def test_optimizers_minimise_a_quadratic(optimizer_cls, kwargs):
    theta = np.zeros(4)
    optimizer = optimizer_cls(theta.size, **kwargs)
    for _ in range(200):
        optimizer.grad[:] = 2 * (theta - 3.0)
        optimizer.step(theta)
    assert np.allclose(theta, 3.0, atol=0.05)


def test_step_skips_parameters_without_gradients():
    theta = np.ones(2)
    optimizer = Adam(theta.size, lr=0.1)
    optimizer.step(theta)  # no gradient written yet
    assert np.array_equal(theta, np.ones(2))
    # A span whose gradient stays zero (a weight that only ever multiplies the
    # null node) keeps its value and zero moments while the rest trains.
    theta = np.ones(6)
    optimizer = Adam(theta.size, lr=0.1)
    for _ in range(20):
        optimizer.grad[:] = np.concatenate([2 * (theta[:4] - 3.0), np.zeros(2)])
        optimizer.step(theta)
    assert np.array_equal(theta[4:], np.ones(2))
    assert not optimizer.m[4:].any() and not optimizer.v[4:].any()
    assert (theta[:4] > 1.0).all()


def test_optimizer_ignores_non_trainable_tensors(tiny_workload):
    n, k = tiny_workload.n_queries, tiny_workload.n_hints
    trainer = TCNNTrainer(tiny_workload.feature_store(), n, k,
                          TCNNConfig(channels=(4,), hidden_units=(4,), max_epochs=1))
    trainer.predict_full(WorkloadMatrix(n, k))  # fills the kept inference arrays
    optimizer, theta = trainer.optimizer, trainer._theta
    # Adam's buffers span the trainable parameters and nothing else...
    size = sum(value.size for value in trainer.parameters.values())
    assert optimizer.m.size == optimizer.v.size == optimizer.grad.size == theta.size == size
    for name, value in trainer.parameters.items():
        assert np.shares_memory(value, theta), name
    assert trainer._workspace
    for stage, buffer in trainer._workspace.items():
        for flat in (theta, optimizer.m, optimizer.v, optimizer.grad):
            assert not np.shares_memory(buffer, flat), stage
    # ...and inference leaves them alone.
    assert optimizer.steps == 0
    assert not optimizer.m.any() and not optimizer.v.any() and not optimizer.grad.any()


def test_flat_adam_is_bit_identical_to_the_per_parameter_textbook_update():
    rng = np.random.default_rng(1)
    # The query embedding table is last in the trainer's flat layout.
    shapes = [(3, 5), (5,), (5, 1), (1,), (4, 3)]
    params = [parameter(rng.normal(size=shape)) for shape in shapes]
    flat, ref = Adam(sum(p.data.size for p in params), lr=3e-3), TextbookAdam(params, lr=3e-3)
    theta = np.concatenate([p.data.reshape(-1) for p in params])

    def step():
        for param in params:
            param.grad = rng.normal(size=param.data.shape)
        flat.grad[:] = np.concatenate([p.grad.reshape(-1) for p in params])
        flat.step(theta)
        ref.step()
        assert np.array_equal(theta, np.concatenate([p.data.reshape(-1) for p in params]))
        for name, moments, mine in (("m", ref.m, flat.m), ("v", ref.v, flat.v)):
            assert np.array_equal(mine, np.concatenate([x.reshape(-1) for x in moments])), name

    for _ in range(4):
        step()

    # The table grows between steps: old rows keep their moments (so their
    # next update is the one they would have had), new rows start at zero.
    m_before = flat.m.copy()
    table = params[-1]
    table.data = np.vstack([table.data, rng.normal(size=(2, 3))])
    ref.grow(len(params) - 1, 6)
    theta = np.concatenate([theta, table.data[4:].reshape(-1)])
    flat.grow(theta.size)
    assert np.array_equal(flat.m[:m_before.size], m_before)
    assert not flat.m[m_before.size:].any() and not flat.v[m_before.size:].any()
    for _ in range(3):
        step()


def test_adam_handles_grown_embedding_tables():
    theta = np.ones(6)
    optimizer = Adam(theta.size, lr=0.1)
    optimizer.grad[:] = 2 * (theta - 3.0)
    optimizer.step(theta)
    m_before, v_before = optimizer.m.copy(), optimizer.v.copy()
    # A table at the end of the vector grows by one 3-wide row.
    theta = np.concatenate([theta, np.ones(3)])
    optimizer.grow(theta.size)
    assert np.array_equal(optimizer.m[:6], m_before) and np.array_equal(optimizer.v[:6], v_before)
    assert not optimizer.m[6:].any() and not optimizer.v[6:].any()
    grad = 2 * (theta - 3.0)
    optimizer.grad[:] = grad
    optimizer.step(theta)
    assert theta.shape == (9,) and optimizer.steps == 2
    assert not np.array_equal(optimizer.m[:6], m_before)
    # The new row started from zero moments.
    np.testing.assert_allclose(optimizer.m[6:], 0.1 * grad[6:])
    np.testing.assert_allclose(optimizer.v[6:], 0.001 * grad[6:] ** 2)


def test_optimizer_validation():
    with pytest.raises(NeuralNetworkError):
        Adam(0, lr=0.1)
    with pytest.raises(NeuralNetworkError):
        Adam(1, lr=0.0)
    with pytest.raises(NeuralNetworkError):
        Adam(1, lr=-1.0)
