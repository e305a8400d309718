"""The taped TCNN: the judge ``repro.nn.trainer.TCNNTrainer`` is held to.

A small reverse-mode autograd over numpy arrays (every :class:`Tensor`
records the op that made it and a closure that sends gradients to its
parents), the layers, tree convolution, losses and models built from its
primitive ops one by one, the textbook per-parameter Adam, and
:class:`TapedTrainer`, the training loop over all of it.  The library's
trainer writes the same architecture's forward and backward out by hand;
``tests/test_nn_fused_reference.py`` requires the two to agree bit for bit
on whole training runs, and central finite differences check the
hand-written backward on its own.

Nothing here is tuned: every node allocates, every gradient is a fresh
array, and the tree convolution gathers children op by op.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import TCNNConfig
from repro.errors import NeuralNetworkError
from repro.nn import trainer
from repro.plans.featurize import NODE_FEATURE_DIM, TreeBatch


# -- the tape -----------------------------------------------------------------------------
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

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @property
    def tracks(self) -> bool:
        """True when a gradient can flow into this tensor."""
        return self.requires_grad or self._backward is not None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=float, copy=True)
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _make(data, parents, backward, name) -> "Tensor":
        """A node over the parents that track; a plain tensor when none does."""
        tracked = tuple(p for p in parents if p.tracks)
        if tracked:
            return Tensor(data, parents=tracked, backward=backward, name=name)
        return Tensor(data, name=name)

    # -- arithmetic -------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.tracks:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return self + (self._wrap(other) * -1.0)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.tracks:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; supports (..., M, K) @ (K, N)."""
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.tracks:
                grad_self = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.tracks:
                grad_other = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._make(np.matmul(self.data, other.data), (self, other), backward, "matmul")

    __matmul__ = matmul

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, "relu")

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make(self.data.reshape(*shape), (self,), backward, "reshape")

    def concat(self, other: "Tensor", axis: int = -1) -> "Tensor":
        other = self._wrap(other)
        split = self.data.shape[axis]

        def backward(grad: np.ndarray) -> None:
            grad_self, grad_other = np.split(grad, [split], axis=axis)
            if self.tracks:
                self._accumulate(grad_self)
            if other.tracks:
                other._accumulate(grad_other)

        out = np.concatenate([self.data, other.data], axis=axis)
        return self._make(out, (self, other), backward, "concat")

    def gather_rows(self, indices) -> "Tensor":
        """Row lookup: ``self`` is (V, D), result is (len(indices), D)."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 2:
            raise NeuralNetworkError("gather_rows expects a 2-D tensor")

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            self._accumulate(full)

        return self._make(self.data[indices], (self,), backward, "gather_rows")

    def gather_nodes(self, indices) -> "Tensor":
        """``out[b, n] = self[b, indices[b, n]]`` for (B, N, F) ``self``."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 3 or indices.ndim != 2:
            raise NeuralNetworkError(
                "gather_nodes expects a (B, N, F) tensor and (B, N) indices"
            )
        batch_index = np.arange(self.data.shape[0])[:, None]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, (batch_index, indices), grad)
            self._accumulate(full)

        out = np.take_along_axis(self.data, indices[:, :, None], axis=1)
        return self._make(out, (self,), backward, "gather_nodes")

    def masked_max(self, mask, axis: int = 1) -> "Tensor":
        """Max over the node axis of (B, N, F), only where ``mask`` (B, N) is 1."""
        mask = np.asarray(mask, dtype=bool)
        if self.data.ndim != 3 or mask.ndim != 2 or axis != 1:
            raise NeuralNetworkError(
                "masked_max currently supports (B, N, F) tensors pooled over axis 1"
            )
        if not mask.any(axis=1).all():
            raise NeuralNetworkError("every sample needs at least one unmasked node")
        masked = self.data.copy()
        masked[~mask] = -np.inf
        argmax = masked.argmax(axis=1)
        batch_index = np.arange(self.data.shape[0])[:, None]
        feature_index = np.arange(self.data.shape[2])[None, :]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, (batch_index, argmax, feature_index), grad)
            self._accumulate(full)

        out = self.data[batch_index, argmax, feature_index]
        return self._make(out, (self,), backward, "masked_max")

    def apply_mask(self, mask) -> "Tensor":
        """Element-wise multiply by a constant mask (dropout, padding)."""
        mask = np.asarray(mask, dtype=float)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, "apply_mask")

    # -- backprop ---------------------------------------------------------------------
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


def parameter(data) -> Tensor:
    """A trainable (leaf) tensor."""
    return Tensor(data, requires_grad=True)


# -- layers -------------------------------------------------------------------------------
class Module:
    """Tracks parameters and train/eval mode."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def parameters(self) -> List[Tensor]:
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Parameter names to value copies."""
        state = {f"{prefix}{name}": t.data.copy() for name, t in self._parameters.items()}
        for child_name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{child_name}."))
        return state

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """``y = x W + b`` with Kaiming-style initialisation."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise NeuralNetworkError("Linear needs positive feature counts")
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.weight = self.register_parameter(
            "weight", parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        )
        self.bias = self.register_parameter("bias", parameter(np.zeros(out_features)))

    def forward(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise NeuralNetworkError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(float) / keep
        return x.apply_mask(mask)


class Embedding(Module):
    """Index -> dense vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int, seed: int = 0) -> None:
        super().__init__()
        if num_embeddings < 1 or dim < 1:
            raise NeuralNetworkError("Embedding needs positive sizes")
        rng = np.random.default_rng(seed)
        self.weight = self.register_parameter(
            "weight", parameter(rng.normal(0.0, 0.1, size=(num_embeddings, dim)))
        )
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise NeuralNetworkError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return self.weight.gather_rows(indices)

    def grow(self, new_count: int, seed: int = 0) -> None:
        """Extend the table (new queries arriving); existing rows are kept."""
        if new_count <= self.num_embeddings:
            return
        rng = np.random.default_rng(seed)
        extra = rng.normal(0.0, 0.1, size=(new_count - self.num_embeddings, self.dim))
        self.weight.data = np.vstack([self.weight.data, extra])
        self.num_embeddings = new_count


class Sequential(Module):
    """Modules applied in order."""

    def __init__(self, modules: Sequence[Module]) -> None:
        super().__init__()
        self._ordered: List[Module] = list(modules)
        for i, module in enumerate(self._ordered):
            self.register_module(f"layer{i}", module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x

    def __iter__(self) -> Iterable[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)


# -- tree convolution ---------------------------------------------------------------------
class BinaryTreeConv(Module):
    """``relu([node | left | right] @ [W_self; W_left; W_right] + b)``, padding zeroed."""

    def __init__(self, in_channels: int, out_channels: int, seed: int = 0) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise NeuralNetworkError("BinaryTreeConv needs positive channel counts")
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / (3 * in_channels))
        for name in ("weight_self", "weight_left", "weight_right"):
            weight = parameter(rng.normal(0.0, scale, (in_channels, out_channels)))
            setattr(self, name, self.register_parameter(name, weight))
        self.bias = self.register_parameter("bias", parameter(np.zeros(out_channels)))
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, nodes: Tensor, left, right, mask) -> Tensor:
        """``nodes`` is (B, N, in_channels), or the (B, N, 3 * in_channels)
        stack a :class:`TreeBatch` keeps; ``left`` / ``right`` / ``mask`` (B, N)."""
        if nodes.data.ndim != 3:
            raise NeuralNetworkError("tree convolution expects a 3-D node tensor")
        batch, width, features = nodes.shape
        if features == self.in_channels:  # hidden activations: stack them here
            nodes = nodes.concat(nodes.gather_nodes(left)).concat(nodes.gather_nodes(right))
        weights = self.weight_self.concat(self.weight_left, axis=0).concat(
            self.weight_right, axis=0
        )
        combined = (
            nodes.reshape(batch * width, 3 * self.in_channels).matmul(weights)
            .reshape(batch, width, self.out_channels)
            + self.bias
        )
        return combined.relu().apply_mask(np.asarray(mask, dtype=float)[:, :, None])


class DynamicPooling(Module):
    """Masked max pooling over the node dimension."""

    def forward(self, nodes: Tensor, mask) -> Tensor:
        return nodes.masked_max(np.asarray(mask, dtype=float) > 0, axis=1)


class TreeConvStack(Module):
    """Tree convolution layers followed by dynamic pooling."""

    def __init__(self, in_channels: int, channels: Sequence[int], seed: int = 0) -> None:
        super().__init__()
        if not channels:
            raise NeuralNetworkError("TreeConvStack needs at least one output channel size")
        self.layers = []
        previous = in_channels
        for i, width in enumerate(channels):
            layer = BinaryTreeConv(previous, int(width), seed=seed + i)
            self.register_module(f"conv{i}", layer)
            self.layers.append(layer)
            previous = int(width)
        self.pool = self.register_module("pool", DynamicPooling())
        self.out_channels = previous

    def forward(self, nodes: Tensor, left, right, mask) -> Tensor:
        hidden = nodes
        for layer in self.layers:
            hidden = layer(hidden, left, right, mask)
        return self.pool(hidden, mask)


# -- losses -------------------------------------------------------------------------------
def mse_loss(predictions: Tensor, targets) -> Tensor:
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError(
            f"prediction shape {predictions.shape} does not match target shape "
            f"{targets.shape}"
        )
    diff = predictions - Tensor(targets)
    return (diff * diff).mean()


def censored_mse_loss(predictions: Tensor, targets, thresholds=None) -> Tensor:
    """Equation 8: a censored sample (threshold > 0) counts only while the
    prediction is below its threshold; ``None`` thresholds is the plain MSE."""
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError(
            f"prediction shape {predictions.shape} does not match target shape "
            f"{targets.shape}"
        )
    if thresholds is None:
        return mse_loss(predictions, targets)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != targets.shape:
        raise NeuralNetworkError("threshold shape does not match target shape")
    below = predictions.data < thresholds
    weights = np.where(thresholds > 0, below.astype(float), 1.0)
    diff = predictions - Tensor(targets)
    return (diff * diff).apply_mask(weights).mean()


# -- models -------------------------------------------------------------------------------
class TCNNModel(Module):
    """Tree convolution, dynamic pooling, dropout and a fully connected head."""

    def __init__(self, config: TCNNConfig, side_features: int = 0) -> None:
        super().__init__()
        self.config = config
        self.tree_conv = self.register_module(
            "tree_conv", TreeConvStack(NODE_FEATURE_DIM, config.channels, seed=trainer.SEED)
        )
        self.dropout = self.register_module(
            "dropout", Dropout(config.dropout, seed=trainer.SEED + 11)
        )
        modules: List[Module] = []
        previous = self.tree_conv.out_channels + side_features
        for i, width in enumerate(config.hidden_units):
            modules += [Linear(previous, int(width), seed=trainer.SEED + 100 + i), ReLU()]
            if config.dropout > 0:
                modules.append(Dropout(config.dropout, seed=trainer.SEED + 200 + i))
            previous = int(width)
        modules.append(Linear(previous, 1, seed=trainer.SEED + 300))
        self.head = self.register_module("head", Sequential(modules))

    def _head_input(self, pooled: Tensor, query_idx, hint_idx) -> Tensor:
        return pooled

    def forward(self, batch: TreeBatch, query_idx=None, hint_idx=None) -> Tensor:
        pooled = self.tree_conv(Tensor(batch.stacked), batch.left, batch.right, batch.mask)
        out = self.head(self.dropout(self._head_input(pooled, query_idx, hint_idx)))
        return out.reshape(batch.stacked.shape[0])


class TransductiveTCNN(TCNNModel):
    """Tree convolution plus query/hint embeddings (the LimeQO+ model)."""

    def __init__(self, n_queries: int, n_hints: int, config: TCNNConfig) -> None:
        if n_queries < 1 or n_hints < 1:
            raise NeuralNetworkError("TransductiveTCNN needs positive matrix dimensions")
        rank = config.embedding_rank
        super().__init__(config, side_features=2 * rank)
        self.query_embedding = self.register_module(
            "query_embedding", Embedding(n_queries, rank, seed=trainer.SEED + 1)
        )
        self.hint_embedding = self.register_module(
            "hint_embedding", Embedding(n_hints, rank, seed=trainer.SEED + 2)
        )

    @property
    def n_queries(self) -> int:
        return self.query_embedding.num_embeddings

    def grow_queries(self, new_count: int) -> None:
        self.query_embedding.grow(new_count, seed=trainer.SEED + 17)

    def _head_input(self, pooled: Tensor, query_idx, hint_idx) -> Tensor:
        query_idx = np.asarray(query_idx, dtype=np.int64)
        hint_idx = np.asarray(hint_idx, dtype=np.int64)
        if query_idx.shape[0] != pooled.shape[0] or hint_idx.shape[0] != pooled.shape[0]:
            raise NeuralNetworkError("query/hint index length must match the batch size")
        query_vectors = self.query_embedding(query_idx)
        hint_vectors = self.hint_embedding(hint_idx)
        return pooled.concat(query_vectors, axis=-1).concat(hint_vectors, axis=-1)


# -- the optimizer ------------------------------------------------------------------------
class TextbookAdam:
    """Kingma & Ba's update, one parameter at a time, out of place.

    Moments are keyed by position; ``grow`` is what an embedding table
    growing means for them (old rows keep theirs, new rows start at zero).
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


# -- the training loop --------------------------------------------------------------------
class TapedTrainer:
    """``TCNNTrainer``'s protocol over the taped model, op by op.

    Same cells, same shuffles, same mini-batches (taken out of the store's
    packed plan space), same dropout streams, same convergence rule.
    """

    def __init__(self, store, n_queries: int, n_hints: int, config: TCNNConfig) -> None:
        self.store, self.config = store, config
        self.n_queries, self.n_hints = n_queries, n_hints
        if config.use_embeddings:
            self.model = TransductiveTCNN(n_queries, n_hints, config)
        else:
            self.model = TCNNModel(config)
        self.optimizer = TextbookAdam(self.model.parameters(), lr=config.learning_rate)
        self._rng = np.random.default_rng(trainer.SEED)

    def grow_queries(self, new_count: int) -> None:
        if new_count <= self.n_queries:
            return
        self.n_queries = new_count
        if isinstance(self.model, TransductiveTCNN):
            self.model.grow_queries(new_count)
            table = self.model.query_embedding.weight
            index = [p is table for p in self.optimizer.parameters].index(True)
            self.optimizer.grow(index, new_count)

    def _packed(self, shape, rows, cols):
        if self.store.shape == shape:
            return self.store.full_batch(), rows * shape[1] + cols
        return self.store.batch(list(zip(rows.tolist(), cols.tolist()))), np.arange(rows.size)

    def fit(self, matrix) -> List[float]:
        config = self.config
        observed = matrix.mask > 0
        keep = observed | matrix.censored_mask
        rows, cols = np.nonzero(keep)
        timeouts = matrix.timeout_matrix[rows, cols]
        observed_here = observed[rows, cols]
        targets = np.where(observed_here, matrix.values[rows, cols], timeouts)
        thresholds = np.where(observed_here, 0.0, timeouts)
        log_targets = np.log1p(targets)
        log_thresholds = np.where(thresholds > 0, np.log1p(thresholds), 0.0)
        censored = bool((log_thresholds > 0).any())
        packed, position = self._packed(matrix.shape, rows, cols)

        self.model.train()
        losses: List[float] = []
        order = np.arange(rows.size)
        for _ in range(config.max_epochs):
            self._rng.shuffle(order)
            batch_losses = []
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                predictions = self.model(packed.take(position[idx]), rows[idx], cols[idx])
                loss = censored_mse_loss(
                    predictions, log_targets[idx], log_thresholds[idx] if censored else None
                )
                self.model.zero_grad()
                loss.backward()
                self.optimizer.step()
                batch_losses.append(loss.item())
            losses.append(float(np.mean(batch_losses)))
            window = config.convergence_window
            if len(losses) > window:
                previous = losses[-window - 1]
                if previous <= 0 or (
                    (previous - losses[-1]) / abs(previous) < config.convergence_threshold
                ):
                    break
        return losses

    def predict_cells(self, cells, batch_size: Optional[int] = None) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        packed, position = self._packed((self.n_queries, self.n_hints), cells[:, 0], cells[:, 1])
        batch_size = batch_size or max(self.config.batch_size, 64)
        predictions = np.zeros(len(cells))
        self.model.eval()
        for start in range(0, len(cells), batch_size):
            window = slice(start, start + batch_size)
            predictions[window] = self.model(
                packed.take(position[window]), cells[window, 0], cells[window, 1]
            ).data
        return np.clip(np.expm1(predictions), 0.0, None)

    def state(self) -> Dict[str, np.ndarray]:
        """The parameters under ``TCNNTrainer.parameters``' names and shapes."""
        model, state = self.model, {}
        for i, layer in enumerate(model.tree_conv.layers):
            state[f"conv{i}.weight"] = np.concatenate(
                [layer.weight_self.data, layer.weight_left.data, layer.weight_right.data]
            )
            state[f"conv{i}.bias"] = layer.bias.data
        for j, linear in enumerate(m for m in model.head if isinstance(m, Linear)):
            state[f"head{j}.weight"] = linear.weight.data
            state[f"head{j}.bias"] = linear.bias.data
        if isinstance(model, TransductiveTCNN):
            state["hint_embedding"] = model.hint_embedding.weight.data
            state["query_embedding"] = model.query_embedding.weight.data
        return state
