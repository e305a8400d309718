"""Optimizers for the numpy neural-network substrate."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import NeuralNetworkError
from .autograd import Tensor


class Optimizer:
    """Base class: holds the parameter list and clears gradients."""

    def __init__(self, parameters: Sequence[Tensor]) -> None:
        self.parameters: List[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise NeuralNetworkError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses implement."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self, parameters: Sequence[Tensor], lr: float = 0.01, momentum: float = 0.0
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise NeuralNetworkError(f"learning rate must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise NeuralNetworkError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.lr * param.grad
            param.data = param.data + velocity


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015), the optimizer the paper trains the TCNN with."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise NeuralNetworkError(f"learning rate must be > 0, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise NeuralNetworkError(f"betas must be in [0, 1), got {betas}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1 - self.beta1 ** self._step_count
        correction2 = 1 - self.beta2 ** self._step_count
        for i, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None or grad.shape != param.data.shape:
                # No gradient, or a stale one from before a resize: skip.
                continue
            if self._m[i].shape != param.data.shape:
                self._grow_moments(i, param.data.shape)
            # The moments are updated in place; the arithmetic (operands and
            # association) is that of the textbook out-of-place form.
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad ** 2
            m_hat = m / correction1
            v_hat = v / correction2
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat *= self.lr
            m_hat /= v_hat
            param.data = param.data - m_hat

    def _grow_moments(self, i: int, shape: tuple) -> None:
        """An embedding table grew (new queries arrived) since the last step.

        Rows that existed keep their moments -- restarting them would make
        the first update of every old row a full-``lr`` sign step -- and
        only the new rows start from zero.
        """
        for moments in (self._m, self._v):
            old = moments[i]
            grown = np.zeros(shape)
            if old.ndim == grown.ndim and old.shape[1:] == shape[1:] and len(old) <= shape[0]:
                grown[:len(old)] = old
            moments[i] = grown
