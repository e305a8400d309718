"""Tests for the Adam optimizer and its flat moment buffers."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from repro.nn.autograd import parameter
from repro.nn.layers import Embedding, Linear
from repro.nn.optim import Adam


def quadratic_loss(param):
    return ((param - 3.0) * (param - 3.0)).sum()


class TextbookAdam:
    """Kingma & Ba's update, one parameter at a time, out of place.

    The reference the flat optimizer is held to bit for bit.  Moments are
    keyed by position; ``grow`` is what an embedding table growing means for
    them (old rows keep theirs, new rows start at zero).
    """

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.steps = 0
        self.m = [np.zeros_like(p.data) for p in self.parameters]
        self.v = [np.zeros_like(p.data) for p in self.parameters]

    def grow(self, i, rows):
        for moments in (self.m, self.v):
            extra = np.zeros((rows - len(moments[i]),) + moments[i].shape[1:])
            moments[i] = np.vstack([moments[i], extra])

    def step(self):
        self.steps += 1
        for i, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad ** 2
            m_hat = self.m[i] / (1 - self.beta1 ** self.steps)
            v_hat = self.v[i] / (1 - self.beta2 ** self.steps)
            param.data = param.data - m_hat * self.lr / (np.sqrt(v_hat) + self.eps)


def moments_of(optimizer, i):
    """Parameter ``i``'s span of the flat moment buffers, in its shape."""
    span, shape = optimizer._spans[i], optimizer._shapes[i]
    return optimizer._m[span].reshape(shape), optimizer._v[span].reshape(shape)


@pytest.mark.parametrize(
    "optimizer_cls,kwargs", [pytest.param(Adam, {"lr": 0.2}, id="Adam-kwargs1")]
)
def test_optimizers_minimise_a_quadratic(optimizer_cls, kwargs):
    param = parameter(np.zeros(4))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(200):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    assert np.allclose(param.data, 3.0, atol=0.05)


def test_step_skips_parameters_without_gradients():
    param = parameter(np.ones(2))
    optimizer = Adam([param], lr=0.1)
    optimizer.step()  # no gradient accumulated yet
    assert np.allclose(param.data, 1.0)


def two_models(seed=0):
    """The same embedding table + two linear layers, twice."""
    def build():
        table = Embedding(4, 3, seed=seed)
        first, second = Linear(3, 5, seed=seed + 1), Linear(5, 1, seed=seed + 2)
        return table, first, second

    return build(), build()


def loss_of(model, rows, targets):
    table, first, second = model
    out = second(first(table(rows)).relu()).reshape(len(rows))
    diff = out - targets
    return (diff * diff).mean()


def parameters_of(model):
    return [p for module in model for p in module.parameters()]


def test_flat_adam_is_bit_identical_to_the_per_parameter_textbook_update():
    flat_model, ref_model = two_models()
    flat = Adam(parameters_of(flat_model), lr=3e-3)
    ref = TextbookAdam(parameters_of(ref_model), lr=3e-3)
    rng = np.random.default_rng(1)

    def step(rows, skip_table=False):
        targets = rng.normal(size=len(rows))
        for model, optimizer in ((flat_model, flat), (ref_model, ref)):
            for param in optimizer.parameters:
                param.zero_grad()
            loss_of(model, rows, targets).backward()
            if skip_table:  # one parameter sits the step out, moments and all
                model[0].weight.grad = None
            optimizer.step()
        for i, (mine, theirs) in enumerate(zip(flat.parameters, ref.parameters)):
            assert np.array_equal(mine.data, theirs.data), i
            m, v = moments_of(flat, i)
            assert np.array_equal(m, ref.m[i]) and np.array_equal(v, ref.v[i]), i

    for _ in range(4):
        step(rng.integers(0, 4, size=6))
    step(rng.integers(0, 4, size=6), skip_table=True)

    # The table grows between steps: old rows keep their moments (so their
    # next update is the one they would have had), new rows start at zero.
    m_before, v_before = (x.copy() for x in moments_of(flat, 0))
    for model in (flat_model, ref_model):
        model[0].grow(6, seed=9)
    ref.grow(0, 6)
    step(np.array([0, 5, 2, 4, 5, 1]))
    m_after, _ = moments_of(flat, 0)
    assert m_after.shape == (6, 3) and m_before.shape == (4, 3)
    assert not np.array_equal(m_after[:4], m_before)
    assert m_after[4:].any() and v_before.any()
    for _ in range(3):
        step(rng.integers(0, 6, size=6))

    # Weights replaced between steps (a restored checkpoint): the moments
    # stay, the update applies to the loaded values.
    state = {"weight": rng.normal(size=(3, 5)), "bias": rng.normal(size=5)}
    for model in (flat_model, ref_model):
        model[1].load_state_dict(state)
    for _ in range(3):
        step(rng.integers(0, 6, size=6))


def test_adam_handles_grown_embedding_tables():
    param = parameter(np.ones((2, 3)))
    optimizer = Adam([param], lr=0.1)
    quadratic_loss(param).backward()
    optimizer.step()
    m_before, v_before = (x.copy() for x in moments_of(optimizer, 0))
    # Simulate an embedding table growing after the optimizer was created.
    param.data = np.vstack([param.data, np.ones((1, 3))])
    param.zero_grad()
    # A stale-shaped gradient (from before the growth) is skipped and must
    # not touch the moments either.
    param.grad = np.ones((2, 3))
    optimizer.step()
    optimizer._step_count -= 1
    m, v = moments_of(optimizer, 0)
    np.testing.assert_array_equal(m[:2], m_before)
    np.testing.assert_array_equal(v[:2], v_before)
    assert not m[2].any() and not v[2].any()
    param.zero_grad()
    quadratic_loss(param).backward()
    optimizer.step()
    assert param.data.shape == (3, 3)
    m, v = moments_of(optimizer, 0)
    assert not np.array_equal(m[:2], m_before)
    assert not np.array_equal(v[:2], v_before)
    # The new row started from zero moments.
    fresh = parameter(np.ones((1, 3)))
    quadratic_loss(fresh).backward()
    np.testing.assert_allclose(m[2], 0.1 * fresh.grad[0])
    np.testing.assert_allclose(v[2], 0.001 * fresh.grad[0] ** 2)


def test_optimizer_validation():
    with pytest.raises(NeuralNetworkError):
        Adam([], lr=0.1)
    param = parameter(np.ones(1))
    with pytest.raises(NeuralNetworkError):
        Adam([param], lr=0.0)
    with pytest.raises(NeuralNetworkError):
        Adam([param], lr=-1.0)
    with pytest.raises(NeuralNetworkError):
        Adam([param], betas=(1.5, 0.9))


def test_optimizer_ignores_non_trainable_tensors():
    from repro.nn.autograd import Tensor

    trainable = parameter(np.ones(1))
    constant = Tensor(np.ones(1))
    optimizer = Adam([trainable, constant], lr=0.1)
    assert len(optimizer.parameters) == 1
