"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape-based autograd: every :class:`Tensor` records the
operation that produced it and a closure that propagates gradients to its
parents.  Only the operations needed by the tree convolutional network are
implemented (matmul, broadcasting add/mul, relu, gather, masked max,
concatenation, reductions, dropout masking), each with a hand-written
backward pass.

Gradient flow follows the micrograd convention: calling
:meth:`Tensor.backward` on a scalar loss walks the recorded graph in
reverse topological order, each node's closure accumulating gradients into
its parents' ``.grad`` attributes.  Leaf tensors created with
``requires_grad=True`` (model parameters) keep their gradients for the
optimizer; intermediate gradients are also stored but are simply discarded
when the graph is garbage collected.

The tape records only what a gradient will flow through:

* a node keeps as parents only the inputs that track a gradient, and its
  closure computes nothing for the others (no ``grad @ W.T`` into the
  constant plan features of the first tree-conv layer);
* under :func:`no_grad` no node is recorded at all -- inference runs the
  same ``forward`` code as training and gets plain tensors back;
* the three chains the TCNN builds on every mini-batch are single nodes
  with hand-written backward passes: :func:`tree_conv` (one product of
  the ``[node | left child | right child]`` stack with the three weights
  joined, bias, relu and the padding mask),
  :func:`affine` (``x @ W + b``) and :func:`squared_error_loss` (the
  MSE / censored-MSE reduction).  Each performs the numpy calls of the
  unfused chain on the same operands in the same association, so values
  and gradients are bit-identical to composing the primitive ops, which
  stay here as the building blocks (and as the reference the tests
  compare the fused nodes against).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NeuralNetworkError


#: False inside :func:`no_grad`; read by :meth:`Tensor._make`.
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block (inference); nests, restores on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward = backward
        self.name = name

    # -- basics --------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def item(self) -> float:
        """Scalar value (for losses)."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing the same values but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers --------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @property
    def tracks(self) -> bool:
        """True when a gradient can flow into this tensor."""
        return self.requires_grad or self._backward is not None

    def _accumulate(self, grad: np.ndarray, copy: bool = True) -> None:
        """Add ``grad`` in; ``copy=False`` when the caller owns a fresh array."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=float, copy=True) if copy else grad
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _make(data, parents, backward, name) -> "Tensor":
        """A node over the parents that track; a plain tensor when none does."""
        if _grad_enabled:
            tracked = tuple(p for p in parents if p.tracks)
            if tracked:
                return Tensor(data, parents=tracked, backward=backward, name=name)
        return Tensor(data, name=name)

    # -- arithmetic ---------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.tracks:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (self._wrap(other) * -1.0)

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (self * -1.0)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.tracks:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    # -- linear algebra --------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; supports (..., M, K) @ (K, N)."""
        other = self._wrap(other)
        out_data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                grad_self = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.tracks:
                grad_other = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._make(out_data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # -- nonlinearities ----------------------------------------------------------------
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "relu")

    # -- reductions ----------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or everything when ``axis`` is None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or everything when ``axis`` is None)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation ----------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Reshape, keeping the graph."""
        out_data = self.data.reshape(*shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward, "reshape")

    def concat(self, other: "Tensor", axis: int = -1) -> "Tensor":
        """Concatenate two tensors along ``axis``."""
        other = self._wrap(other)
        out_data = np.concatenate([self.data, other.data], axis=axis)
        split = self.data.shape[axis]

        def backward(grad: np.ndarray) -> None:
            grad_self, grad_other = np.split(grad, [split], axis=axis)
            if self.tracks:
                self._accumulate(grad_self)
            if other.tracks:
                other._accumulate(grad_other)

        return self._make(out_data, (self, other), backward, "concat")

    # -- gathers (used by embeddings and tree convolution) -------------------------------------
    def gather_rows(self, indices) -> "Tensor":
        """Row lookup: ``self`` is (V, D), result is (len(indices), D)."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 2:
            raise NeuralNetworkError("gather_rows expects a 2-D tensor")
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "gather_rows")

    def gather_nodes(self, indices) -> "Tensor":
        """Per-sample node lookup for tree convolution.

        ``self`` is (B, N, F), ``indices`` is (B, N); the result at
        ``[b, n, :]`` is ``self[b, indices[b, n], :]``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 3 or indices.ndim != 2:
            raise NeuralNetworkError(
                "gather_nodes expects a (B, N, F) tensor and (B, N) indices"
            )
        batch_index = np.arange(self.data.shape[0])[:, None]
        # take_along_axis compiles to one contiguous gather; the advanced-
        # indexing spelling allocated an intermediate index broadcast.
        out_data = np.take_along_axis(self.data, indices[:, :, None], axis=1)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, (batch_index, indices), grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "gather_nodes")

    def masked_max(self, mask, axis: int = 1) -> "Tensor":
        """Max over ``axis`` considering only positions where ``mask`` is 1.

        Used for dynamic pooling over plan-tree nodes: ``self`` is
        (B, N, F), ``mask`` is (B, N), the result is (B, F).
        """
        mask = np.asarray(mask, dtype=bool)
        if self.data.ndim != 3 or mask.ndim != 2 or axis != 1:
            raise NeuralNetworkError(
                "masked_max currently supports (B, N, F) tensors pooled over axis 1"
            )
        if not mask.any(axis=1).all():
            raise NeuralNetworkError("every sample needs at least one unmasked node")
        masked = self.data.copy()
        masked[~mask] = -np.inf
        argmax = masked.argmax(axis=1)  # (B, F)
        batch_index = np.arange(self.data.shape[0])[:, None]
        feature_index = np.arange(self.data.shape[2])[None, :]
        out_data = self.data[batch_index, argmax, feature_index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            # Every (sample, feature) pair lands in its own cell, so this is
            # ``np.add.at`` onto zeros; ``0.0 +`` keeps its ``-0.0 -> 0.0``.
            full[batch_index, argmax, feature_index] = 0.0 + grad
            self._accumulate(full, copy=False)

        return self._make(out_data, (self,), backward, "masked_max")

    def apply_mask(self, mask) -> "Tensor":
        """Element-wise multiply by a constant mask (dropout, padding)."""
        mask = np.asarray(mask, dtype=float)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "apply_mask")

    # -- backprop -----------------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise NeuralNetworkError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=float))
        for node in self._topological_order():
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        """Nodes ordered so every tensor appears before its parents."""
        seen = set()
        postorder: List[Tensor] = []
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                postorder.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        postorder.reverse()
        return postorder


def parameter(data, name: str = "") -> Tensor:
    """Create a trainable (leaf) tensor."""
    return Tensor(data, requires_grad=True, name=name)


# -- fused nodes ------------------------------------------------------------------------
# Each is the chain the TCNN used to record op by op, as one node.  The numpy
# calls, their operands and their association are those of the chain (see
# ``tests/test_nn_fused_reference.py`` for the chain itself), so the results
# are bit-identical; what goes away is the per-op ``Tensor``, closure and
# gradient copy, and every product that would flow into a constant.


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one node (the body of a ``Linear`` layer)."""
    out_data = np.matmul(x.data, weight.data)
    out_data += bias.data

    def backward(grad: np.ndarray) -> None:
        if bias.tracks:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if x.tracks:
            grad_x = np.matmul(grad, np.swapaxes(weight.data, -1, -2))
            x._accumulate(_unbroadcast(grad_x, x.data.shape), copy=False)
        if weight.tracks:
            grad_weight = np.matmul(np.swapaxes(x.data, -1, -2), grad)
            weight._accumulate(_unbroadcast(grad_weight, weight.data.shape), copy=False)

    return Tensor._make(out_data, (x, weight, bias), backward, "affine")


def tree_conv(
    nodes: Tensor,
    left,
    right,
    mask,
    weight_self: Tensor,
    weight_left: Tensor,
    weight_right: Tensor,
    bias: Tensor,
    out: Optional[np.ndarray] = None,
) -> Tensor:
    """One binary tree convolution over a padded batch, as one node.

    ``relu([node | left child | right child] @ [W_self; W_left; W_right]
    + bias)`` with padding zeroed -- one ``(B * N, 3F) @ (3F, C)`` product
    forward and one ``(3F, B * N) @ (B * N, C)`` product for all three weight
    gradients.  ``nodes`` is either the ``(B, N, 3F)`` stack itself (the
    first layer's plan features, which :class:`~repro.plans.featurize.TreeBatch`
    keeps stacked because they never change) or a ``(B, N, F)`` tensor of
    hidden activations, whose children are gathered here as rows of its
    ``(B * N, F)`` view; the gradient into it is scattered onto the same
    rows.  ``left`` / ``right`` are (B, N) child positions on the node axis
    and ``mask`` is (B, N), nonzero for real nodes.  ``out``, a (B, N, C)
    array, receives the result in place of a fresh allocation.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    real = np.asarray(mask, dtype=bool)
    data = nodes.data
    features = weight_self.data.shape[0]
    if (
        data.ndim != 3
        or not left.shape == right.shape == real.shape == data.shape[:2]
        or data.shape[2] not in (features, 3 * features)
    ):
        raise NeuralNetworkError(
            "tree_conv expects a (B, N, F) or stacked (B, N, 3F) tensor and "
            "(B, N) child indices and mask"
        )
    batch, width = real.shape
    gathered = data.shape[2] == features
    if gathered:
        rows = data.reshape(batch * width, features)
        first_row = (np.arange(batch) * width)[:, None]
        left_rows = (left + first_row).reshape(-1)
        right_rows = (right + first_row).reshape(-1)
        stack = np.concatenate(
            [rows, np.take(rows, left_rows, axis=0), np.take(rows, right_rows, axis=0)],
            axis=1,
        )
    else:
        stack = data.reshape(batch * width, 3 * features)
    weights = np.concatenate(
        [weight_self.data, weight_left.data, weight_right.data], axis=0
    )
    if out is not None:
        out = out.reshape(batch * width, weights.shape[1])
    flat = np.matmul(stack, weights, out=out)
    flat += bias.data
    # relu, then padding (and the null node) back to exactly zero so deeper
    # layers keep the "missing child == zero vector" invariant.  Both are
    # products with 0 or 1, so one product with their conjunction gives the
    # same bits as the two in sequence.
    active = flat > 0
    active[~real.reshape(-1)] = False
    flat *= active

    def backward(grad: np.ndarray) -> None:
        grad = grad * active.reshape(grad.shape)
        if bias.tracks:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        grad = grad.reshape(batch * width, -1)
        grad_weights = np.matmul(stack.T, grad)
        for i, weight in enumerate((weight_self, weight_left, weight_right)):
            if weight.tracks:
                weight._accumulate(
                    grad_weights[i * features:(i + 1) * features], copy=False
                )
        if nodes.tracks:
            grad_stack = np.matmul(grad, weights.T)
            if gathered:
                grad_rows = grad_stack[:, :features]
                for i, child_rows in ((1, left_rows), (2, right_rows)):
                    scattered = np.zeros_like(rows)
                    np.add.at(
                        scattered, child_rows,
                        grad_stack[:, i * features:(i + 1) * features],
                    )
                    grad_rows = grad_rows + scattered
                grad_stack = grad_rows
            nodes._accumulate(grad_stack.reshape(data.shape), copy=False)

    return Tensor._make(
        flat.reshape(batch, width, -1),
        (nodes, weight_self, weight_left, weight_right, bias), backward, "tree_conv",
    )


def squared_error_loss(
    predictions: Tensor, targets: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tensor:
    """``mean(weights * (predictions - targets) ** 2)`` as one node.

    ``weights`` is the censored loss's 0/1 indicator (paper Equation 8);
    ``None`` is the plain MSE.
    """
    diff = predictions.data + targets * -1.0
    squared = diff * diff
    if weights is not None:
        squared *= weights
    scale = 1.0 / squared.size
    out_data = squared.sum() * scale

    def backward(grad: np.ndarray) -> None:
        spread = np.broadcast_to(grad * scale, diff.shape).copy()
        if weights is not None:
            spread *= weights
        spread *= diff
        predictions._accumulate(spread + spread, copy=False)

    return Tensor._make(out_data, (predictions,), backward, "squared_error_loss")

