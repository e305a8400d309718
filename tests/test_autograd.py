"""Tests for the taped autograd (the judge in taped_tcnn.py), including numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from taped_tcnn import Tensor, parameter


def numerical_gradient(func, value, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    value = np.asarray(value, dtype=float)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(value)
        flat[i] = original - eps
        minus = func(value)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def test_add_mul_backward_with_broadcasting():
    a = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = parameter(np.array([10.0, 20.0]))
    out = (a * 2.0 + b).sum()
    out.backward()
    assert np.allclose(a.grad, 2.0 * np.ones((2, 2)))
    assert np.allclose(b.grad, [2.0, 2.0])


def test_matmul_backward_matches_numerical():
    rng = np.random.default_rng(0)
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))

    a = parameter(a_val.copy())
    b = parameter(b_val.copy())
    (a @ b).sum().backward()

    num_a = numerical_gradient(lambda x: (x @ b_val).sum(), a_val.copy())
    num_b = numerical_gradient(lambda x: (a_val @ x).sum(), b_val.copy())
    assert np.allclose(a.grad, num_a, atol=1e-5)
    assert np.allclose(b.grad, num_b, atol=1e-5)


def test_batched_matmul_backward():
    rng = np.random.default_rng(1)
    x_val = rng.normal(size=(2, 5, 3))
    w_val = rng.normal(size=(3, 4))
    x = parameter(x_val.copy())
    w = parameter(w_val.copy())
    (x @ w).sum().backward()
    num_w = numerical_gradient(lambda v: np.matmul(x_val, v).sum(), w_val.copy())
    assert np.allclose(w.grad, num_w, atol=1e-5)
    assert x.grad.shape == x_val.shape


def test_relu_backward():
    x = parameter(np.array([-2.0, -0.5, 0.5, 3.0]))
    x.relu().sum().backward()
    assert np.allclose(x.grad, [0.0, 0.0, 1.0, 1.0])


def test_mean_and_sum_with_axes():
    x = parameter(np.arange(6.0).reshape(2, 3))
    x.sum(axis=0).sum().backward()
    assert np.allclose(x.grad, np.ones((2, 3)))
    y = parameter(np.arange(6.0).reshape(2, 3))
    y.mean(axis=1).sum().backward()
    assert np.allclose(y.grad, np.full((2, 3), 1.0 / 3.0))


def test_reshape_and_concat_backward():
    a = parameter(np.ones((2, 2)))
    b = parameter(np.ones((2, 3)))
    out = a.reshape(2, 2).concat(b, axis=1)
    (out * 2.0).sum().backward()
    assert np.allclose(a.grad, 2 * np.ones((2, 2)))
    assert np.allclose(b.grad, 2 * np.ones((2, 3)))


def test_gather_rows_backward_accumulates_duplicates():
    table = parameter(np.arange(8.0).reshape(4, 2))
    out = table.gather_rows(np.array([0, 0, 3]))
    out.sum().backward()
    expected = np.zeros((4, 2))
    expected[0] = 2.0
    expected[3] = 1.0
    assert np.allclose(table.grad, expected)


def test_gather_rows_requires_2d():
    with pytest.raises(NeuralNetworkError):
        parameter(np.ones(3)).gather_rows(np.array([0]))


def test_gather_nodes_forward_and_backward():
    x_val = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    idx = np.array([[0, 2, 1], [1, 1, 0]])
    x = parameter(x_val.copy())
    out = x.gather_nodes(idx)
    assert np.allclose(out.data[0, 1], x_val[0, 2])
    assert np.allclose(out.data[1, 0], x_val[1, 1])
    out.sum().backward()
    expected = np.zeros_like(x_val)
    for b in range(2):
        for n in range(3):
            expected[b, idx[b, n]] += 1.0
    assert np.allclose(x.grad, expected)


def test_masked_max_forward_and_backward():
    x_val = np.array(
        [[[1.0, 5.0], [9.0, 2.0], [3.0, 3.0]]]
    )  # (1, 3, 2)
    mask = np.array([[0.0, 1.0, 1.0]])
    x = parameter(x_val.copy())
    pooled = x.masked_max(mask)
    assert np.allclose(pooled.data, [[9.0, 3.0]])
    pooled.sum().backward()
    expected = np.zeros_like(x_val)
    expected[0, 1, 0] = 1.0  # max of column 0 among unmasked nodes
    expected[0, 2, 1] = 1.0
    assert np.allclose(x.grad, expected)


def test_masked_max_requires_an_unmasked_node():
    x = parameter(np.ones((1, 2, 2)))
    with pytest.raises(NeuralNetworkError):
        x.masked_max(np.zeros((1, 2)))


def test_apply_mask_backward():
    x = parameter(np.ones((2, 2)))
    mask = np.array([[1.0, 0.0], [0.5, 2.0]])
    x.apply_mask(mask).sum().backward()
    assert np.allclose(x.grad, mask)


def test_backward_requires_scalar_without_explicit_gradient():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(NeuralNetworkError):
        (x * 2).backward()


def test_parameter_reused_twice_accumulates_gradient():
    x = parameter(np.array([3.0]))
    out = (x * 2.0) + (x * 5.0)
    out.sum().backward()
    assert np.allclose(x.grad, [7.0])


def test_detach_cuts_the_graph():
    x = parameter(np.array([2.0]))
    detached = (x * 3.0).detach()
    (detached * 2.0).sum().backward()
    assert x.grad is None


def test_constant_inputs_build_no_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a @ b
    assert out._backward is None
