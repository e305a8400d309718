"""The optimizer for the numpy neural-network substrate."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import NeuralNetworkError
from .autograd import Tensor


class Adam:
    """Adam (Kingma & Ba 2015), the optimizer the paper trains the TCNN with.

    The gradients are copied into one flat buffer and both moments live in
    flat buffers beside it, one span per parameter, so a step is one run of
    the update over everything instead of one per parameter.  The arithmetic
    is elementwise: every element gets the textbook update bit for bit.
    """

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters: List[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise NeuralNetworkError("optimizer received no trainable parameters")
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
        self._shapes: List[tuple] = []
        self._spans: List[slice] = []
        self._m = self._v = self._grad = np.zeros(0)
        self._lay_out()

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for param in self.parameters:
            param.zero_grad()

    def _lay_out(self) -> None:
        """Size the flat buffers for the parameters' current shapes.

        Called again when an embedding table grew (new queries arrived)
        since the last step: rows that existed keep their moments --
        restarting them would make the first update of every old row a
        full-``lr`` sign step -- and only the new rows start from zero.
        """
        shapes = [param.data.shape for param in self.parameters]
        bounds = np.cumsum([0] + [param.data.size for param in self.parameters])
        spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        m, v = np.zeros(bounds[-1]), np.zeros(bounds[-1])
        for old_shape, old, shape, new in zip(self._shapes, self._spans, shapes, spans):
            kept = old.stop - old.start
            # Row-major: the rows a table had are the head of its longer span.
            if old_shape[1:] == shape[1:] and kept <= new.stop - new.start:
                m[new.start:new.start + kept] = self._m[old]
                v[new.start:new.start + kept] = self._v[old]
        self._shapes, self._spans = shapes, spans
        self._m, self._v, self._grad = m, v, np.zeros(bounds[-1])

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        if any(p.data.shape != shape for p, shape in zip(self.parameters, self._shapes)):
            self._lay_out()
        self._step_count += 1
        correction1 = 1 - self.beta1 ** self._step_count
        correction2 = 1 - self.beta2 ** self._step_count
        live = []
        for param, span in zip(self.parameters, self._spans):
            # No gradient, or a stale one from before a resize: skip.
            if param.grad is not None and param.grad.shape == param.data.shape:
                self._grad[span] = param.grad.reshape(-1)
                live.append((param, span))
        # One span over everything unless some parameter sits this step out.
        whole = len(live) == len(self.parameters)
        for span in [slice(None)] if whole else [span for _, span in live]:
            # The moments are updated in place; the arithmetic (operands and
            # association) is that of the textbook out-of-place form.
            m, v, grad = self._m[span], self._v[span], self._grad[span]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad ** 2
            m_hat = m / correction1
            v_hat = v / correction2
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat *= self.lr
            np.divide(m_hat, v_hat, out=grad)  # the buffer now holds the update
        for param, span in live:
            param.data = param.data - self._grad[span].reshape(param.data.shape)
