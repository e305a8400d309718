"""Adam over one flat parameter vector."""

from __future__ import annotations

import numpy as np

from ..errors import NeuralNetworkError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam (Kingma & Ba 2015), the optimizer the paper trains the TCNN with.

    The parameters are one flat vector and so are the gradient and both
    moments: the trainer writes each parameter's gradient into its span of
    :attr:`grad`, and a step is one elementwise update of everything.  The
    arithmetic (operands and association) is the textbook out-of-place form,
    so every element gets that update bit for bit.
    """

    def __init__(self, size: int, lr: float = 1e-3) -> None:
        if size < 1:
            raise NeuralNetworkError("optimizer received no trainable parameters")
        if lr <= 0:
            raise NeuralNetworkError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self.steps = 0
        self.m, self.v, self.grad = np.zeros(size), np.zeros(size), np.zeros(size)

    def grow(self, size: int) -> None:
        """Lengthen every buffer to ``size`` (an embedding table grew at the end).

        The elements that existed keep their moments -- restarting them would
        make the next update of every old row a full-``lr`` sign step -- and
        the new ones start from zero.
        """
        extra = np.zeros(size - self.m.size)
        self.m = np.concatenate([self.m, extra])
        self.v = np.concatenate([self.v, extra])
        self.grad = np.zeros(size)

    def step(self, theta: np.ndarray) -> None:
        """Update ``theta`` in place from :attr:`grad` (which it overwrites)."""
        self.steps += 1
        correction1 = 1 - BETA1 ** self.steps
        correction2 = 1 - BETA2 ** self.steps
        m, v, grad = self.m, self.v, self.grad
        m *= BETA1
        m += (1 - BETA1) * grad
        v *= BETA2
        v += (1 - BETA2) * grad ** 2
        m_hat = m / correction1
        v_hat = v / correction2
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPS
        m_hat *= self.lr
        np.divide(m_hat, v_hat, out=grad)  # the buffer now holds the update
        theta -= grad
