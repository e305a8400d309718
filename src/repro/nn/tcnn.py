"""The TCNN and transductive TCNN models (paper Section 4.3.2).

``TCNNModel`` is the Bao-style architecture: tree convolution over plan
features, dynamic pooling, fully connected layers, one scalar output per
plan.  ``TransductiveTCNN`` adds two embedding tables -- one per query
(matrix row) and one per hint (matrix column) -- whose vectors are
concatenated with the pooled plan representation before the fully connected
head.  The embeddings are isomorphic to the ALS factors ``Q`` and ``H``,
which is how the model exploits the workload matrix's low-rank structure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import TCNNConfig
from ..errors import NeuralNetworkError
from ..plans.featurize import NODE_FEATURE_DIM, TreeBatch
from .autograd import Tensor
from .layers import Dropout, Embedding, Linear, Module, ReLU, Sequential
from .treeconv import TreeConvStack


def _build_head(in_features: int, hidden_units: Sequence[int], dropout: float,
                seed: int) -> Sequential:
    """Fully connected head ending in a single latency output."""
    modules = []
    previous = in_features
    for i, width in enumerate(hidden_units):
        modules.append(Linear(previous, int(width), seed=seed + 100 + i))
        modules.append(ReLU())
        if dropout > 0:
            modules.append(Dropout(dropout, seed=seed + 200 + i))
        previous = int(width)
    modules.append(Linear(previous, 1, seed=seed + 300))
    return Sequential(modules)


class TCNNModel(Module):
    """Plain tree convolutional network over plan features."""

    def __init__(self, config: Optional[TCNNConfig] = None,
                 node_feature_dim: int = NODE_FEATURE_DIM, side_features: int = 0) -> None:
        super().__init__()
        self.config = config or TCNNConfig(use_embeddings=False)
        self.tree_conv = self.register_module(
            "tree_conv",
            TreeConvStack(node_feature_dim, self.config.channels, seed=self.config.seed),
        )
        self.dropout = self.register_module(
            "dropout", Dropout(self.config.dropout, seed=self.config.seed + 11)
        )
        self.head = self.register_module(
            "head",
            _build_head(
                self.tree_conv.out_channels + side_features,
                self.config.hidden_units,
                self.config.dropout,
                self.config.seed,
            ),
        )

    def _head_input(self, pooled: Tensor, query_idx, hint_idx) -> Tensor:
        """What the head sees of each plan (here: query/hint ids ignored)."""
        return pooled

    def forward(self, batch: TreeBatch, query_idx=None, hint_idx=None) -> Tensor:
        """Predict one latency per plan (per plan, query id, hint id triple)."""
        nodes = Tensor(batch.stacked)
        pooled = self.tree_conv(nodes, batch.left, batch.right, batch.mask)
        out = self.head(self.dropout(self._head_input(pooled, query_idx, hint_idx)))
        return out.reshape(batch.batch_size)


class TransductiveTCNN(TCNNModel):
    """Tree convolution plus query/hint embeddings (the LimeQO+ model)."""

    def __init__(
        self,
        n_queries: int,
        n_hints: int,
        config: Optional[TCNNConfig] = None,
        node_feature_dim: int = NODE_FEATURE_DIM,
    ) -> None:
        if n_queries < 1 or n_hints < 1:
            raise NeuralNetworkError("TransductiveTCNN needs positive matrix dimensions")
        config = config or TCNNConfig(use_embeddings=True)
        rank = config.embedding_rank
        super().__init__(config, node_feature_dim, side_features=2 * rank)
        self.query_embedding = self.register_module(
            "query_embedding", Embedding(n_queries, rank, seed=config.seed + 1)
        )
        self.hint_embedding = self.register_module(
            "hint_embedding", Embedding(n_hints, rank, seed=config.seed + 2)
        )

    @property
    def n_queries(self) -> int:
        """Current size of the query embedding table."""
        return self.query_embedding.num_embeddings

    def grow_queries(self, new_count: int) -> None:
        """Extend the query embedding table when new queries arrive."""
        self.query_embedding.grow(new_count, seed=self.config.seed + 17)

    def _head_input(self, pooled: Tensor, query_idx, hint_idx) -> Tensor:
        query_idx = np.asarray(query_idx, dtype=np.int64)
        hint_idx = np.asarray(hint_idx, dtype=np.int64)
        if query_idx.shape[0] != pooled.shape[0] or hint_idx.shape[0] != pooled.shape[0]:
            raise NeuralNetworkError("query/hint index length must match the batch size")
        query_vectors = self.query_embedding(query_idx)
        hint_vectors = self.hint_embedding(hint_idx)
        return pooled.concat(query_vectors, axis=-1).concat(hint_vectors, axis=-1)
