"""Binary tree convolution and dynamic pooling (Mou et al., adapted by Neo/Bao).

A tree convolution layer applies three weight matrices -- one for the node
itself, one for its left child, one for its right child -- at every node of
a binary plan tree, then sums and activates.  Missing children point at the
reserved all-zero node 0, so the operation vectorises as one product of
the padded ``[node | left child | right child]`` stack with the three
matrices joined -- one fused autograd node,
:func:`repro.nn.autograd.tree_conv`.  Dynamic
pooling reduces the node dimension with a masked max, yielding one vector
per plan regardless of plan size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import NeuralNetworkError
from .autograd import Tensor, parameter, tree_conv
from .layers import Module


class BinaryTreeConv(Module):
    """One layer of binary tree convolution."""

    def __init__(self, in_channels: int, out_channels: int, seed: int = 0) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise NeuralNetworkError("BinaryTreeConv needs positive channel counts")
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / (3 * in_channels))
        self.weight_self = self.register_parameter(
            "weight_self", parameter(rng.normal(0.0, scale, (in_channels, out_channels)))
        )
        self.weight_left = self.register_parameter(
            "weight_left", parameter(rng.normal(0.0, scale, (in_channels, out_channels)))
        )
        self.weight_right = self.register_parameter(
            "weight_right", parameter(rng.normal(0.0, scale, (in_channels, out_channels)))
        )
        self.bias = self.register_parameter("bias", parameter(np.zeros(out_channels)))
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, nodes: Tensor, left: np.ndarray, right: np.ndarray,
                mask: np.ndarray, out: Optional[np.ndarray] = None) -> Tensor:
        """Convolve a padded batch of trees.

        Parameters
        ----------
        nodes:
            ``(batch, max_nodes, in_channels)`` node features, or the
            ``(batch, max_nodes, 3 * in_channels)`` stack a ``TreeBatch``
            keeps; position 0 of every sample must stay the all-zero null
            node.
        left / right:
            ``(batch, max_nodes)`` child indices into the node axis.
        mask:
            ``(batch, max_nodes)`` 1.0 for real nodes.
        out:
            ``(batch, max_nodes, out_channels)`` array to write the result in.
        """
        return tree_conv(
            nodes, left, right, mask,
            self.weight_self, self.weight_left, self.weight_right, self.bias, out,
        )


class DynamicPooling(Module):
    """Masked max pooling over the node dimension."""

    def forward(self, nodes: Tensor, mask: np.ndarray) -> Tensor:
        return nodes.masked_max(np.asarray(mask, dtype=float) > 0, axis=1)


class TreeConvStack(Module):
    """A stack of tree convolution layers followed by dynamic pooling."""

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

    def forward(self, nodes: Tensor, left: np.ndarray, right: np.ndarray,
                mask: np.ndarray) -> Tensor:
        hidden = nodes
        for layer in self.layers:
            hidden = layer(hidden, left, right, mask)
        return self.pool(hidden, mask)
