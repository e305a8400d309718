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

Cost model.  ``fit`` packs nothing when the feature store keeps the whole
plan space packed (``full_batch``): the training rows are taken out of it by
flat cell index, and each mini-batch records about a dozen tape nodes (one
fused tree-conv node per layer, one per ``Linear``, one for the loss; see
:mod:`repro.nn.autograd`).  Inference (``predict_cells``
/ ``predict_full``) runs the same ``forward`` under ``no_grad`` and records
no tape at all; ``predict_full`` walks the packed plan space in chunks of
``_CHUNK_NODE_ROWS`` padded node rows, so its intermediates stay around
128 KiB each whatever the matrix size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import TCNNConfig
from ..core.workload_matrix import WorkloadMatrix, checked_ids
from ..errors import NeuralNetworkError
from ..plans.featurize import TreeBatch
from .autograd import no_grad
from .losses import censored_mse_loss
from .optim import Adam
from .tcnn import TCNNModel, TransductiveTCNN


#: Padded node rows (plans x ``max_nodes``) per ``predict_full`` forward pass:
#: 256 plans at the 8-node synthetic plans, fewer as plans get wider.  With
#: the benchmarks' 8 channels every intermediate is then 128 KiB, which the
#: allocator recycles from its heap; at 4096 rows each chunk's 256 KiB
#: temporaries were mapped afresh and page-faulted in (1600 minor faults and
#: +2.3 ms per JOB-size ``predict_full``), and below 1024 rows the per-chunk
#: Python overhead takes over.  Predictions do not depend on it.
_CHUNK_NODE_ROWS = 2048


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

    # -- fitting ------------------------------------------------------------------
    def fit(self, matrix: WorkloadMatrix) -> List[float]:
        """Train on the matrix's observed cells; returns per-epoch losses."""
        rows, cols, targets, thresholds = self._training_cells(matrix)
        log_targets = np.log1p(targets)
        log_thresholds = np.where(thresholds > 0, np.log1p(thresholds), 0.0)
        # With no censored cell in the training set the indicator weights
        # would all be 1.0, which is the plain MSE bit for bit.
        censored = self.config.censored and bool((log_thresholds > 0).any())

        # The training set is packed once; every epoch's mini-batches are
        # row slices of it (the tree convolution is padding-width invariant,
        # so the losses do not depend on how wide the pack is).  A store
        # that keeps the whole plan space packed hands the rows over by flat
        # cell index with no featurise-and-pad pass at all.
        plan_space = self._plan_space(matrix.shape)
        if plan_space is not None:
            packed = plan_space.take(rows * matrix.n_hints + cols)
        else:
            packed = self.feature_store.batch(list(zip(rows.tolist(), cols.tolist())))

        self.model.train()
        epoch_losses: List[float] = []
        order = np.arange(rows.size)
        for epoch in range(self.config.max_epochs):
            self._rng.shuffle(order)
            batch_losses = []
            for start in range(0, len(order), self.config.batch_size):
                batch_idx = order[start:start + self.config.batch_size]
                predictions = self.model(
                    packed.take(batch_idx), rows[batch_idx], cols[batch_idx]
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

    def _forward(self, batch: TreeBatch, query_idx: np.ndarray,
                 hint_idx: np.ndarray) -> np.ndarray:
        """Latencies in seconds for trusted ids: one tape-free forward pass."""
        self.model.eval()
        with no_grad():
            out = self.model(batch, query_idx, hint_idx)
        return np.clip(np.expm1(out.data), 0.0, None)

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
        predictions = np.zeros(len(cells))
        if batch_size is None:
            batch_size = max(self.config.batch_size, 64)
        for start in range(0, len(cells), batch_size):
            window = slice(start, start + batch_size)
            batch = self.feature_store.batch(
                list(zip(query_idx[window].tolist(), hint_idx[window].tolist()))
            )
            predictions[window] = self._forward(batch, query_idx[window], hint_idx[window])
        return predictions

    def predict_full(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Predicted latencies for every cell of the matrix.

        When the feature store caches a pre-packed full-matrix batch
        (:meth:`~repro.plans.featurize.PlanFeatureStore.full_batch`), the
        whole pass is array slices and forward passes -- no per-cell Python
        loop, no repeated padding.  Inference is deterministic per sample
        (dropout is off in eval mode), so chunk boundaries do not affect the
        predictions.
        """
        n, k = matrix.n_queries, matrix.n_hints
        packed = self._plan_space((n, k))
        if packed is None:
            cells = np.stack(np.divmod(np.arange(n * k), k), axis=1)
            return self.predict_cells(cells).reshape(n, k)

        query_idx = np.repeat(np.arange(n, dtype=np.int64), k)
        hint_idx = np.tile(np.arange(k, dtype=np.int64), n)
        predictions = np.empty(n * k)
        chunk = max(1, _CHUNK_NODE_ROWS // packed.max_nodes)
        for start in range(0, n * k, chunk):
            window = slice(start, start + chunk)
            predictions[window] = self._forward(
                packed.take(window), query_idx[window], hint_idx[window]
            )
        return predictions.reshape(n, k)
