"""Training loop for the (transductive) TCNN.

Follows the paper's protocol (Section 5, "Techniques and tests"):

* Adam over mini-batches of ``config.batch_size`` cells (the paper and the
  config default use 32; the figure benchmarks and ``explore_tcnn`` use
  128),
* at most ``config.max_epochs`` epochs (paper: 100), stopping early when
  the training loss decreases by less than 1% over the convergence window
  (paper: 10 epochs),
* warm start -- each offline-exploration step re-trains the model starting
  from the previous step's weights,
* censored loss for timed-out observations (Equation 8).

Targets are trained in ``log1p`` space so the heavy-tailed latency
distribution does not destabilise the small network; predictions are mapped
back with ``expm1`` and clipped to be non-negative.

Cost model.  A store that keeps the plan space packed (``full_batch``) is
read, never re-packed: ``fit`` and ``predict_cells`` take their cells out of
it by flat index and run ``forward`` (about a dozen fused tape nodes per
mini-batch; none under ``no_grad``), and ``predict_full`` is one tape-free
pass over all of it into arrays the trainer keeps between calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TCNNConfig
from ..core.workload_matrix import WorkloadMatrix, checked_ids
from ..errors import NeuralNetworkError
from ..plans.featurize import TreeBatch
from .autograd import Tensor, no_grad
from .layers import Linear, ReLU
from .losses import censored_mse_loss
from .optim import Adam
from .tcnn import TCNNModel, TransductiveTCNN


class TCNNTrainer:
    """Trains a TCNN (with or without embeddings) on observed matrix cells."""

    def __init__(
        self,
        feature_store,
        n_queries: int,
        n_hints: int,
        config: Optional[TCNNConfig] = None,
    ) -> None:
        self.feature_store = feature_store
        self.config = config or TCNNConfig()
        self.n_queries = int(n_queries)
        self.n_hints = int(n_hints)
        if self.config.use_embeddings:
            self.model = TransductiveTCNN(self.n_queries, self.n_hints, self.config)
        else:
            self.model = TCNNModel(self.config)
        self.optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        self._rng = np.random.default_rng(self.config.seed)
        self.loss_history: List[float] = []
        #: ``predict_full``'s intermediates by stage, re-made when a shape moves.
        self._workspace: Dict[object, np.ndarray] = {}

    # -- workload growth -----------------------------------------------------
    def grow_queries(self, new_count: int) -> None:
        """Handle new rows appearing in the workload matrix."""
        if new_count <= self.n_queries:
            return
        self.n_queries = int(new_count)
        if isinstance(self.model, TransductiveTCNN):
            self.model.grow_queries(self.n_queries)

    # -- training data ---------------------------------------------------------
    def _training_cells(
        self, matrix: WorkloadMatrix
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, targets, thresholds)`` of the cells to train on.

        One vectorised pass over the matrix views; cells come out in
        row-major order, completed observations taking priority over
        censored ones.
        """
        observed = matrix.mask > 0
        keep = observed
        if self.config.censored:
            keep = observed | matrix.censored_mask
        rows, cols = np.nonzero(keep)
        if rows.size == 0:
            raise NeuralNetworkError("no observed cells to train on")
        values = matrix.values[rows, cols]
        timeouts = matrix.timeout_matrix[rows, cols]
        observed_here = observed[rows, cols]
        targets = np.where(observed_here, values, timeouts)
        thresholds = np.where(observed_here, 0.0, timeouts)
        return rows, cols, targets, thresholds

    def _plan_space(self, shape: Tuple[int, int]) -> Optional[TreeBatch]:
        """The store's packed batch of every cell, when it covers ``shape``."""
        full_batch = getattr(self.feature_store, "full_batch", None)
        if full_batch is None or self.feature_store.shape != shape:
            return None
        return full_batch()

    def _packed(
        self, shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[TreeBatch, np.ndarray]:
        """A packed batch holding the given cells, and where each sits in it:
        the plan space and flat cell indices when the store keeps one."""
        space = self._plan_space(shape)
        if space is not None:
            return space, rows * shape[1] + cols
        cells = list(zip(rows.tolist(), cols.tolist()))
        return self.feature_store.batch(cells), np.arange(rows.size)

    # -- fitting ------------------------------------------------------------------
    def fit(self, matrix: WorkloadMatrix) -> List[float]:
        """Train on the matrix's observed cells; returns per-epoch losses."""
        rows, cols, targets, thresholds = self._training_cells(matrix)
        log_targets = np.log1p(targets)
        log_thresholds = np.where(thresholds > 0, np.log1p(thresholds), 0.0)
        # With no censored cell in the training set the indicator weights
        # would all be 1.0, which is the plain MSE bit for bit.
        censored = self.config.censored and bool((log_thresholds > 0).any())

        # Every epoch's mini-batches are row selections of one packed batch
        # (the tree convolution is padding-width invariant, so the losses do
        # not depend on how wide the pack is).
        packed, position = self._packed(matrix.shape, rows, cols)

        self.model.train()
        epoch_losses: List[float] = []
        order = np.arange(rows.size)
        for epoch in range(self.config.max_epochs):
            self._rng.shuffle(order)
            batch_losses = []
            for start in range(0, len(order), self.config.batch_size):
                batch_idx = order[start:start + self.config.batch_size]
                predictions = self.model(
                    packed.take(position[batch_idx]), rows[batch_idx], cols[batch_idx]
                )
                loss = censored_mse_loss(
                    predictions,
                    log_targets[batch_idx],
                    log_thresholds[batch_idx] if censored else None,
                )
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                batch_losses.append(loss.item())
            epoch_loss = float(np.mean(batch_losses))
            epoch_losses.append(epoch_loss)
            self.loss_history.append(epoch_loss)
            if self._converged(epoch_losses):
                break
        return epoch_losses

    def _converged(self, losses: Sequence[float]) -> bool:
        """Paper criterion: < ``convergence_threshold`` decrease over the window."""
        window = self.config.convergence_window
        if len(losses) <= window:
            return False
        previous = losses[-window - 1]
        current = losses[-1]
        if previous <= 0:
            return True
        improvement = (previous - current) / abs(previous)
        return improvement < self.config.convergence_threshold

    # -- inference -------------------------------------------------------------------
    def _cell_ids(self, query_idx, hint_idx) -> Tuple[np.ndarray, np.ndarray]:
        """Validate caller-supplied cell ids: integral and inside the matrix.

        ``np.asarray(..., dtype=np.int64)`` would truncate ``1.7`` to
        someone else's row and let ``True`` through as row 1; an id past
        the store would surface as a bare ``IndexError`` mid-featurisation.
        """
        query_idx = checked_ids("query", query_idx, self.n_queries, NeuralNetworkError)
        hint_idx = checked_ids("hint", hint_idx, self.n_hints, NeuralNetworkError)
        if query_idx.size != hint_idx.size:
            raise NeuralNetworkError(
                f"{query_idx.size} query ids for {hint_idx.size} hint ids"
            )
        return query_idx, hint_idx

    def predict_cells(
        self, cells: Sequence[Tuple[int, int]], batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Predicted latencies (seconds) for specific matrix cells.

        ``cells`` is a sequence of ``(query, hint)`` pairs or an ``(m, 2)``
        integer array.
        """
        try:
            cells = np.asarray(cells)
        except ValueError as exc:  # ragged rows
            raise NeuralNetworkError(f"cells must be (query, hint) pairs: {exc}") from exc
        if cells.size == 0:
            return np.zeros(0)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise NeuralNetworkError(
                f"cells must be (query, hint) pairs, got shape {cells.shape}"
            )
        query_idx, hint_idx = self._cell_ids(cells[:, 0], cells[:, 1])
        packed, position = self._packed(
            (self.n_queries, self.n_hints), query_idx, hint_idx
        )
        predictions = np.zeros(len(cells))
        if batch_size is None:
            batch_size = max(self.config.batch_size, 64)
        self.model.eval()
        with no_grad():
            for start in range(0, len(cells), batch_size):
                window = slice(start, start + batch_size)
                predictions[window] = self.model(
                    packed.take(position[window]), query_idx[window], hint_idx[window]
                ).data
        return np.clip(np.expm1(predictions), 0.0, None)

    def _buffer(self, stage, shape: Tuple[int, ...]) -> np.ndarray:
        """The kept array ``predict_full`` writes ``stage`` into."""
        buffer = self._workspace.get(stage)
        if buffer is None or buffer.shape != shape:
            buffer = self._workspace[stage] = np.empty(shape)
        return buffer

    def predict_full(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Predicted latencies for every cell of the matrix.

        When the feature store keeps the plan space packed this is
        ``forward`` in eval mode written out over all of it at once: each
        stage's result goes into a kept array (``out=``), the embeddings are
        broadcast over the ``n x k`` grid instead of gathered per cell, and
        nothing is recorded.  ``predict_cells`` is the generic ``forward``
        the tests hold this to.
        """
        n, k = matrix.n_queries, matrix.n_hints
        space, model = self._plan_space((n, k)), self.model
        if space is None:
            cells = np.stack(np.divmod(np.arange(n * k), k), axis=1)
            return self.predict_cells(cells).reshape(n, k)
        if not (space.mask > 0).any(axis=1).all():
            raise NeuralNetworkError("every sample needs at least one unmasked node")
        cells, width = space.batch_size, space.max_nodes
        hidden = Tensor(space.stacked)
        with no_grad():
            for depth, layer in enumerate(model.tree_conv.layers):
                out = self._buffer(("conv", depth), (cells, width, layer.out_channels))
                hidden = layer(hidden, space.left, space.right, space.mask, out=out)
        conv, channels = hidden.data, hidden.shape[2]
        # Dynamic pooling.  Every entry is a relu output or a zeroed padding
        # row, so the maximum over all nodes is the maximum over the real
        # ones.  (Into a contiguous array: a slice of ``combined`` as the
        # target is twice as slow.)
        pooled = self._buffer("pooled", (cells, channels))
        pooled[:] = conv[:, 0]
        for node in range(1, width):
            np.maximum(pooled, conv[:, node], out=pooled)
        rank = self.config.embedding_rank if self.config.use_embeddings else 0
        combined = self._buffer("combined", (n, k, channels + 2 * rank))
        if rank:
            combined[:, :, channels:channels + rank] = model.query_embedding.weight.data[:, None]
            combined[:, :, channels + rank:] = model.hint_embedding.weight.data
        out = combined.reshape(cells, -1)
        out[:, :channels] = pooled
        for depth, module in enumerate(model.head):  # dropout is off in eval mode
            if isinstance(module, Linear):
                kept = self._buffer(("head", depth), (cells, module.out_features))
                out = np.matmul(out, module.weight.data, out=kept)
                out += module.bias.data
            elif isinstance(module, ReLU):
                np.maximum(out, 0.0, out=out)
        return np.clip(np.expm1(out.reshape(n, k)), 0.0, None)
