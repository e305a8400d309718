"""Tests for the SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from repro.nn.autograd import parameter
from repro.nn.optim import SGD, Adam


def quadratic_loss(param):
    return ((param - 3.0) * (param - 3.0)).sum()


@pytest.mark.parametrize("optimizer_cls,kwargs", [(SGD, {"lr": 0.1}), (Adam, {"lr": 0.2})])
def test_optimizers_minimise_a_quadratic(optimizer_cls, kwargs):
    param = parameter(np.zeros(4))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(200):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    assert np.allclose(param.data, 3.0, atol=0.05)


def test_sgd_momentum_accelerates():
    slow = parameter(np.zeros(1))
    fast = parameter(np.zeros(1))
    plain = SGD([slow], lr=0.01)
    momentum = SGD([fast], lr=0.01, momentum=0.9)
    for _ in range(50):
        for param, optimizer in ((slow, plain), (fast, momentum)):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
    assert abs(fast.data[0] - 3.0) < abs(slow.data[0] - 3.0)


def test_step_skips_parameters_without_gradients():
    param = parameter(np.ones(2))
    optimizer = Adam([param], lr=0.1)
    optimizer.step()  # no gradient accumulated yet
    assert np.allclose(param.data, 1.0)


def test_adam_handles_grown_embedding_tables():
    param = parameter(np.ones((2, 3)))
    optimizer = Adam([param], lr=0.1)
    quadratic_loss(param).backward()
    optimizer.step()
    # The same parameter, never grown, is what the old rows must keep doing.
    twin = parameter(param.data.copy())
    twin_optimizer = Adam([twin], lr=0.1)
    twin_optimizer._step_count = optimizer._step_count
    twin_optimizer._m = [optimizer._m[0].copy()]
    twin_optimizer._v = [optimizer._v[0].copy()]
    m_before, v_before = optimizer._m[0].copy(), optimizer._v[0].copy()
    # Simulate an embedding table growing after the optimizer was created.
    param.data = np.vstack([param.data, np.ones((1, 3))])
    param.zero_grad()
    # A stale-shaped gradient (from before the growth) is skipped and must
    # not touch the moments either.
    param.grad = np.ones((2, 3))
    optimizer.step()
    optimizer._step_count -= 1
    np.testing.assert_array_equal(optimizer._m[0], m_before)
    param.zero_grad()
    quadratic_loss(param).backward()
    optimizer.step()
    assert param.data.shape == (3, 3)
    # Growth keeps the old rows' moments: their next update is the one they
    # would have had without it (not a restart from zero moments, which makes
    # every old row's first step a full-lr sign step).
    quadratic_loss(twin).backward()
    twin_optimizer.step()
    np.testing.assert_array_equal(optimizer._m[0][:2], twin_optimizer._m[0])
    np.testing.assert_array_equal(optimizer._v[0][:2], twin_optimizer._v[0])
    np.testing.assert_array_equal(param.data[:2], twin.data)
    assert not np.array_equal(optimizer._m[0][:2], m_before)
    assert not np.array_equal(optimizer._v[0][:2], v_before)
    # The new row started from zero moments.
    fresh = parameter(np.ones((1, 3)))
    quadratic_loss(fresh).backward()
    np.testing.assert_allclose(optimizer._m[0][2], 0.1 * fresh.grad[0])
    np.testing.assert_allclose(optimizer._v[0][2], 0.001 * fresh.grad[0] ** 2)


def test_optimizer_validation():
    with pytest.raises(NeuralNetworkError):
        SGD([], lr=0.1)
    param = parameter(np.ones(1))
    with pytest.raises(NeuralNetworkError):
        SGD([param], lr=0.0)
    with pytest.raises(NeuralNetworkError):
        SGD([param], lr=0.1, momentum=1.5)
    with pytest.raises(NeuralNetworkError):
        Adam([param], lr=-1.0)
    with pytest.raises(NeuralNetworkError):
        Adam([param], betas=(1.5, 0.9))


def test_optimizer_ignores_non_trainable_tensors():
    from repro.nn.autograd import Tensor

    trainable = parameter(np.ones(1))
    constant = Tensor(np.ones(1))
    optimizer = SGD([trainable, constant], lr=0.1)
    assert len(optimizer.parameters) == 1
