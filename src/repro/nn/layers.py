"""Basic neural-network layers built on the autograd substrate."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..errors import NeuralNetworkError
from .autograd import Tensor, affine, parameter


class Module:
    """Base class: tracks parameters and train/eval mode."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration -------------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Register a trainable tensor under ``name``."""
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name``."""
        self._modules[name] = module
        return module

    # -- traversal ------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable tensors in this module and its children."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Enable training mode (dropout active)."""
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        """Enable evaluation mode (dropout disabled)."""
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    # -- persistence ---------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Flat mapping of parameter names to value copies."""
        state = {
            f"{prefix}{name}": tensor.data.copy()
            for name, tensor in self._parameters.items()
        }
        for child_name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{child_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Inverse of :meth:`state_dict`; shapes must match exactly."""
        for name, tensor in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise NeuralNetworkError(f"missing parameter {key!r} in state dict")
            value = np.asarray(state[key], dtype=float)
            if value.shape != tensor.data.shape:
                raise NeuralNetworkError(
                    f"parameter {key!r}: shape {value.shape} does not match "
                    f"{tensor.data.shape}"
                )
            tensor.data = value.copy()
        for child_name, child in self._modules.items():
            child.load_state_dict(state, prefix=f"{prefix}{child_name}.")

    # -- call protocol -----------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        """Subclass hook."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W + b`` with Kaiming-style initialisation."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise NeuralNetworkError("Linear needs positive feature counts")
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.weight = self.register_parameter(
            "weight", parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        )
        self.bias = self.register_parameter(
            "bias", parameter(np.zeros(out_features))
        )
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class ReLU(Module):
    """Rectified linear unit as a module."""

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
    """Chain of modules applied in order."""

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
