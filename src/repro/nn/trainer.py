"""The (transductive) TCNN and its training loop (paper Section 4.3.2).

The model is Bao's tree convolutional network plus, for LimeQO+, one
embedding table per query (matrix row) and one per hint (matrix column),
isomorphic to the ALS factors ``Q`` and ``H``.  The architecture is fixed:

* ``tree_conv`` layers: ``relu([node | left child | right child] @ W + b)``
  at every node, padding (and the null node missing children point at)
  zeroed;
* a max pool over each plan's nodes;
* ``[pooled | query embedding | hint embedding]`` through a dropout /
  ``Linear`` / ``ReLU`` head to one log-latency per cell;
* the censored squared error of Equation 8.

So its forward and backward are written out here once, as straight-line
numpy.  Every parameter is a view of one flat array and its gradient is
written straight into the matching view of Adam's flat buffer, so an Adam
step is one update.  The numpy calls, their operands and their association
are those of the taped chain in ``tests/taped_tcnn.py``, and the dropout
masks come from the same per-layer generators in the same order, so a
training run is bit-identical to it.

Training follows the paper's protocol (Section 5, "Techniques and tests"):

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
read, never re-packed: each epoch gathers its shuffled training cells out of
it once and its mini-batches are slices of that, and ``predict_full`` is one
pass over it, a block of plans at a time, into arrays kept between calls.  Both
passes pay for the max pool per pooled (cell, channel), not per node:
training gathers each maximum, and scatters its gradient, through one flat
index, and ``predict_full`` pools the last layer's bare products and only
then adds the bias and applies the relu (exact, since both are
non-decreasing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TCNNConfig
from ..core.workload_matrix import WorkloadMatrix, checked_ids
from ..errors import NeuralNetworkError
from ..plans.featurize import NODE_FEATURE_DIM, TreeBatch
from .optim import Adam

#: Base seed of the network's initial weights, its dropout masks and the
#: embedding rows :meth:`TCNNTrainer.grow_queries` adds: every trainer draws
#: the same initial network for the same shapes.
SEED = 0

#: Plans per block of ``predict_full``'s convolutions and max pool: a block's
#: conv buffer stays in cache from the GEMM that writes it to the pool that
#: reads it (docs/performance.md, "The plan space in blocks").
BLOCK_PLANS = 512


def _max_over_nodes(conv: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``conv.max(axis=1)`` for a ``(cells, nodes, channels)`` array, as a
    running maximum into ``out``.  The caller keeps padding from winning:
    relu outputs with the padding zeroed (the per-batch forward), or bare
    products with it at -inf (``predict_full``).  (Halving the node axis in
    place makes fewer calls over the same elements, and measured slower: it
    writes into strided slices.)"""
    if out is None:
        out = conv[:, 0].copy()
    else:
        out[:] = conv[:, 0]
    for node in range(1, conv.shape[1]):
        np.maximum(out, conv[:, node], out=out)
    return out


def _rows_between(index: np.ndarray, start: int, stop: int) -> np.ndarray:
    """An ascending flat row index's entries in ``[start, stop)``, from ``start``."""
    lo, hi = np.searchsorted(index, (start, stop))
    return index[lo:hi] - start


def _scatter_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``out[:] = 0; np.add.at(out, ids, rows)`` as one ``np.bincount``, which
    sums each row's contributions in the same (batch) order."""
    width = out.shape[1]
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    out.reshape(-1)[:] = np.bincount(flat, weights=rows.reshape(-1), minlength=out.size)


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
        self.config = config = config or TCNNConfig()
        self.n_queries = int(n_queries)
        self.n_hints = int(n_hints)
        if not config.channels or min((*config.channels, *config.hidden_units)) < 1:
            raise NeuralNetworkError(
                "the TCNN needs at least one tree-conv layer and positive widths"
            )
        self._rank = config.embedding_rank if config.use_embeddings else 0
        if self._rank and min(self.n_queries, self.n_hints) < 1:
            raise NeuralNetworkError("the transductive TCNN needs positive matrix dimensions")

        seed, initial = SEED, []
        previous = NODE_FEATURE_DIM
        for i, width in enumerate(config.channels):
            rng = np.random.default_rng(seed + i)
            scale = np.sqrt(2.0 / (3 * previous))
            # W_self, W_left, W_right drawn in that order, kept stacked: the
            # matrix the [node | left | right] rows multiply.
            weight = np.concatenate(
                [rng.normal(0.0, scale, (previous, int(width))) for _ in range(3)]
            )
            initial += [(f"conv{i}.weight", weight), (f"conv{i}.bias", np.zeros(int(width)))]
            previous = int(width)
        previous += 2 * self._rank
        widths = [*config.hidden_units, 1]
        seeds = [seed + 100 + j for j in range(len(config.hidden_units))] + [seed + 300]
        for j, (width, head_seed) in enumerate(zip(widths, seeds)):
            rng = np.random.default_rng(head_seed)
            weight = rng.normal(0.0, np.sqrt(2.0 / previous), size=(previous, int(width)))
            initial += [(f"head{j}.weight", weight), (f"head{j}.bias", np.zeros(int(width)))]
            previous = int(width)
        if self._rank:
            # The query table last, so that a new query appends to the flat arrays.
            initial += [
                ("hint_embedding",
                 np.random.default_rng(seed + 2).normal(0.0, 0.1, (self.n_hints, self._rank))),
                ("query_embedding",
                 np.random.default_rng(seed + 1).normal(0.0, 0.1, (self.n_queries, self._rank))),
            ]
        self._shapes = [(name, value.shape) for name, value in initial]
        self._theta = np.concatenate([value.reshape(-1) for _, value in initial])
        self.optimizer = Adam(self._theta.size, lr=config.learning_rate)
        self._lay_out()
        # One generator per dropout: before the head, then after each hidden layer.
        self._dropout = [
            np.random.default_rng(seed + 11),
            *(np.random.default_rng(seed + 200 + j) for j in range(len(widths) - 1)),
        ] if config.dropout > 0 else []
        self._rng = np.random.default_rng(seed)
        self.loss_history: List[float] = []
        #: The last packed batch checked for an all-padding plan, its padding
        #: rows, and those of them past each plan's null node (what the pool reads).
        self._checked_batch: Optional[TreeBatch] = None
        self._padding = np.zeros(0, dtype=np.int64)
        self._pool_padding = self._padding
        #: ``predict_full``'s intermediates by stage, re-made when a shape moves.
        self._workspace: Dict[object, np.ndarray] = {}

    def _lay_out(self) -> None:
        """Point every parameter, and its gradient, at its span of the flat arrays."""
        self.parameters: Dict[str, np.ndarray] = {}
        grads, start = {}, 0
        for name, shape in self._shapes:
            stop = start + int(np.prod(shape))
            self.parameters[name] = self._theta[start:stop].reshape(shape)
            grads[name] = self.optimizer.grad[start:stop].reshape(shape)
            start = stop

        def layers(prefix, count):
            return [
                (self.parameters[f"{prefix}{i}.weight"], self.parameters[f"{prefix}{i}.bias"],
                 grads[f"{prefix}{i}.weight"], grads[f"{prefix}{i}.bias"])
                for i in range(count)
            ]

        self._conv = layers("conv", len(self.config.channels))
        self._head = layers("head", len(self.config.hidden_units) + 1)
        self._tables = [
            (self.parameters[name], grads[name]) for name in ("hint_embedding", "query_embedding")
        ] if self._rank else []

    # -- workload growth -----------------------------------------------------
    def grow_queries(self, new_count: int) -> None:
        """Handle new rows appearing in the workload matrix."""
        if new_count <= self.n_queries:
            return
        extra_rows = int(new_count) - self.n_queries
        self.n_queries = int(new_count)
        if self._rank:
            extra = np.random.default_rng(SEED + 17).normal(
                0.0, 0.1, size=(extra_rows, self._rank)
            )
            self._shapes[-1] = ("query_embedding", (self.n_queries, self._rank))
            self._theta = np.concatenate([self._theta, extra.reshape(-1)])
            self.optimizer.grow(self._theta.size)
            self._lay_out()

    # -- training data ---------------------------------------------------------
    def _covers(self, matrix: WorkloadMatrix) -> None:
        """Refuse a matrix with cells outside the trainer's (the rule
        ``_cell_ids`` applies to ``predict_cells``) or outside the feature
        store's plans, when the store has a shape."""
        if matrix.n_queries > self.n_queries or matrix.n_hints > self.n_hints:
            raise NeuralNetworkError(
                f"a {matrix.shape} matrix has cells outside the trainer's "
                f"{(self.n_queries, self.n_hints)}"
            )
        plans = getattr(self.feature_store, "shape", None)
        if plans is not None and (matrix.n_queries > plans[0] or matrix.n_hints > plans[1]):
            raise NeuralNetworkError(
                f"a {matrix.shape} matrix has cells outside the feature store's "
                f"{tuple(plans)}"
            )

    def _training_cells(
        self, matrix: WorkloadMatrix
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, targets, thresholds)`` of the cells to train on.

        Read through the matrix's kept cell indices, in row-major order: the
        completed cells and the censored ones at their bounds (a cell is never
        both: a completed observation wins).
        """
        known = matrix.solver_cells()
        flat, targets, thresholds = known.obs_idx, known.obs_vals, np.zeros(known.obs_idx.size)
        if known.cen_idx.size:
            flat = np.concatenate([flat, known.cen_idx])
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            targets = np.concatenate([targets, known.cen_vals])[order]
            thresholds = np.concatenate([thresholds, known.cen_vals])[order]
        if flat.size == 0:
            raise NeuralNetworkError("no observed cells to train on")
        rows, cols = np.divmod(flat, matrix.n_hints)
        return rows, cols, targets, thresholds

    def _plan_space(self, shape: Tuple[int, int]) -> Optional[TreeBatch]:
        """The store's packed batch of every cell, when it covers ``shape``."""
        full_batch = getattr(self.feature_store, "full_batch", None)
        if full_batch is None or self.feature_store.shape != shape:
            return None
        return self._checked(full_batch())

    def _packed(
        self, shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[TreeBatch, np.ndarray]:
        """A packed batch holding the given cells, and where each sits in it:
        the plan space and flat cell indices when the store keeps one."""
        space = self._plan_space(shape)
        if space is not None:
            return space, rows * shape[1] + cols
        cells = list(zip(rows.tolist(), cols.tolist()))
        return self._checked(self.feature_store.batch(cells)), np.arange(rows.size)

    def _checked(self, batch: TreeBatch) -> TreeBatch:
        """``batch``, once it is known that every plan in it has a real node
        (the max pool needs one); a batch is checked once, not per use."""
        if batch is not self._checked_batch:
            real = batch.mask > 0
            if not real.any(axis=1).all():
                raise NeuralNetworkError("every sample needs at least one unmasked node")
            self._checked_batch = batch
            padding = ~real
            self._padding = np.flatnonzero(padding.reshape(-1))
            padding[:, 0] = False  # node 0 is every plan's null node (``pack_trees``)
            self._pool_padding = np.flatnonzero(padding.reshape(-1))
        return batch

    # -- the network ------------------------------------------------------------------
    def _tree_conv(
        self, depth: int, stack: np.ndarray, padding, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Layer ``depth`` over ``(cells * nodes, 3 * channels)`` stacked rows."""
        weight, bias = self._conv[depth][:2]
        flat = np.matmul(stack, weight, out=out)
        flat += bias
        np.maximum(flat, 0.0, out=flat)
        # Padding back to exactly zero, so deeper layers keep the "missing
        # child == zero vector" invariant and the pool's maximum is the real
        # nodes' (a relu output is never below zero).
        flat[padding] = 0.0
        return flat

    @staticmethod
    def _child_rows(batch: TreeBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Each node's left and right child as rows of the ``(cells * nodes, C)`` view."""
        cells, width = batch.left.shape
        first_row = (np.arange(cells) * width)[:, None]
        return (batch.left + first_row).reshape(-1), (batch.right + first_row).reshape(-1)

    @staticmethod
    def _stacked(hidden: np.ndarray, children, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``[node | left child | right child]`` rows of hidden activations."""
        left_rows, right_rows = children
        return np.concatenate(
            [hidden, np.take(hidden, left_rows, axis=0), np.take(hidden, right_rows, axis=0)],
            axis=1, out=out,
        )

    def _forward(self, batch: TreeBatch, query_idx, hint_idx, train: bool):
        """Log-latency predictions for a batch of cells, and (with ``train``,
        which also turns dropout on) what the backward pass reads."""
        cells, width = batch.mask.shape
        padding = batch.mask.reshape(-1) == 0
        hidden = batch.stacked.reshape(cells * width, -1)
        children, stacks, convs = None, [], []
        for depth in range(len(self._conv)):
            if depth:
                children = children or self._child_rows(batch)
                hidden = self._stacked(hidden, children)
            stacks.append(hidden)
            hidden = self._tree_conv(depth, hidden, padding)
            convs.append(hidden)
        conv = hidden.reshape(cells, width, -1)
        if train:
            # Each (cell, channel)'s maximum as one flat index into ``conv``,
            # which the backward scatters through.
            channels = conv.shape[2]
            argmax = (np.arange(cells)[:, None] * width + conv.argmax(axis=1)) * channels
            argmax += np.arange(channels)
            pooled = conv.reshape(-1)[argmax]
        else:
            pooled = _max_over_nodes(conv)
        x = pooled
        if self._rank:
            (hint_table, _), (query_table, _) = self._tables
            x = np.concatenate([pooled, query_table[query_idx], hint_table[hint_idx]], axis=1)
        dropout = train and bool(self._dropout)
        keep = 1.0 - self.config.dropout
        relus, masks, inputs = [None], [], []
        for j, (weight, bias, _, _) in enumerate(self._head):
            if j:
                np.maximum(x, 0.0, out=x)
                relus.append(x)
            if dropout:
                masks.append((self._dropout[j].random(x.shape) < keep).astype(float) / keep)
                x = x * masks[j]
            inputs.append(x)
            x = np.matmul(x, weight)
            x += bias
        saved = (stacks, convs, children, argmax, relus, masks, inputs) if train else None
        return x.reshape(cells), saved

    def _gradient(
        self, batch: TreeBatch, query_idx, hint_idx, targets, thresholds=None
    ) -> float:
        """One mini-batch's loss; its gradient goes into ``optimizer.grad``.

        ``thresholds`` (log space, 0 for an uncensored cell) switches on the
        censored loss of Equation 8: a censored cell counts only while it is
        predicted below its timeout.
        """
        predictions, saved = self._forward(batch, query_idx, hint_idx, train=True)
        stacks, convs, children, argmax, relus, masks, inputs = saved
        diff = predictions + targets * -1.0
        squared = diff * diff
        if thresholds is not None:
            weights = np.where(thresholds > 0, (predictions < thresholds).astype(float), 1.0)
            squared *= weights
        scale = 1.0 / squared.size
        loss = float(squared.sum() * scale)

        grad = np.full(diff.shape, scale)
        if thresholds is not None:
            grad *= weights
        grad *= diff
        grad = (grad + grad).reshape(-1, 1)
        for j in reversed(range(len(self._head))):
            weight, _, grad_weight, grad_bias = self._head[j]
            np.sum(grad, axis=0, out=grad_bias)
            grad_input = np.matmul(grad, weight.T)
            np.matmul(inputs[j].T, grad, out=grad_weight)
            if masks:
                grad_input = grad_input * masks[j]
            if j:
                grad = grad_input * (relus[j] > 0)

        channels, rank = convs[-1].shape[1], self._rank
        if rank:
            (_, grad_hints), (_, grad_queries) = self._tables
            _scatter_rows(grad_queries, query_idx, grad_input[:, channels:channels + rank])
            _scatter_rows(grad_hints, hint_idx, grad_input[:, channels + rank:])
        cells, width = batch.mask.shape
        # The pool's gradient lands on each maximum (``0.0 +`` as np.add.at onto zeros).
        grad = np.zeros((cells, width, channels))
        grad.reshape(-1)[argmax] = 0.0 + grad_input[:, :channels]
        for depth in reversed(range(len(self._conv))):
            weight, _, grad_weight, grad_bias = self._conv[depth]
            grad = grad * (convs[depth] > 0).reshape(grad.shape)
            np.sum(grad.sum(axis=0), axis=0, out=grad_bias)
            grad = grad.reshape(cells * width, -1)
            np.matmul(stacks[depth].T, grad, out=grad_weight)
            if depth:
                grad_stack = np.matmul(grad, weight.T)
                features = grad_stack.shape[1] // 3
                grad_rows = grad_stack[:, :features]
                for i, child_rows in enumerate(children, start=1):
                    scattered = np.empty((cells * width, features))
                    _scatter_rows(
                        scattered, child_rows, grad_stack[:, i * features:(i + 1) * features]
                    )
                    grad_rows = grad_rows + scattered
                grad = grad_rows.reshape(cells, width, features)
        return loss

    # -- fitting ------------------------------------------------------------------
    def fit(self, matrix: WorkloadMatrix) -> List[float]:
        """Train on the matrix's observed cells; returns per-epoch losses."""
        self._covers(matrix)
        rows, cols, targets, thresholds = self._training_cells(matrix)
        log_targets = np.log1p(targets)
        log_thresholds = np.where(thresholds > 0, np.log1p(thresholds), 0.0)
        # With no censored cell in the training set the indicator weights
        # would all be 1.0, which is the plain MSE bit for bit.
        censored = bool((log_thresholds > 0).any())
        # Every epoch's mini-batches are row selections of one packed batch
        # (the tree convolution is padding-width invariant, so the losses do
        # not depend on how wide the pack is).
        packed, position = self._packed(matrix.shape, rows, cols)

        size = self.config.batch_size
        epoch_losses: List[float] = []
        order = np.arange(rows.size)
        for _ in range(self.config.max_epochs):
            self._rng.shuffle(order)
            # The epoch's cells in its order, gathered once: mini-batches are slices.
            epoch = packed.take(position[order])
            queries, hints, goals = rows[order], cols[order], log_targets[order]
            bounds = log_thresholds[order] if censored else None
            batch_losses = []
            for start in range(0, rows.size, size):
                window = slice(start, start + size)
                batch_losses.append(self._gradient(
                    epoch.take(window), queries[window], hints[window], goals[window],
                    None if bounds is None else bounds[window],
                ))
                self.optimizer.step(self._theta)
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

    def predict_cells(self, cells: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Predicted latencies (seconds) for specific matrix cells.

        ``cells`` is a sequence of ``(query, hint)`` pairs or an ``(m, 2)``
        integer array; one forward takes at most ``max(config.batch_size,
        64)`` of them.
        """
        batch_size = max(self.config.batch_size, 64)
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
        for start in range(0, len(cells), batch_size):
            window = slice(start, start + batch_size)
            predictions[window] = self._forward(
                packed.take(position[window]), query_idx[window], hint_idx[window],
                train=False,
            )[0]
        return np.clip(np.expm1(predictions), 0.0, None)

    def _buffer(self, stage, shape: Tuple[int, ...]) -> np.ndarray:
        """The kept array ``predict_full`` writes ``stage`` into."""
        buffer = self._workspace.get(stage)
        if buffer is None or buffer.shape != shape:
            buffer = self._workspace[stage] = np.empty(shape)
        return buffer

    def predict_full(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Predicted latencies for every cell of the matrix.

        When the feature store keeps the plan space packed this is one pass
        over it into kept arrays (``out=``).  The convolutions and the max
        pool run per block of ``BLOCK_PLANS`` plans in block-sized buffers,
        padding zeroed (or, before the pool, -inf) through the plan space's
        kept indices; the last layer pools before it activates, into the
        block's rows of ``(cells, channels)``.  The bias, relu and head then
        run over all cells, the embeddings broadcast over the ``n x k`` grid.
        ``predict_cells`` is the per-batch forward the tests hold this to.
        """
        self._covers(matrix)
        n, k = matrix.n_queries, matrix.n_hints
        space = self._plan_space((n, k))
        if space is None:
            cells = np.stack(np.divmod(np.arange(n * k), k), axis=1)
            return self.predict_cells(cells).reshape(n, k)
        cells, width = space.mask.shape
        last, channels = len(self._conv) - 1, self._conv[-1][0].shape[1]
        pooled = self._buffer("pooled", (cells, channels))
        size = min(BLOCK_PLANS, cells) * width  # the block buffers' rows
        for start in range(0, cells, BLOCK_PLANS):
            block = space.take(slice(start, start + BLOCK_PLANS))
            rows, first = block.mask.size, start * width
            hidden = block.stacked.reshape(rows, -1)
            children = self._child_rows(block) if last else None
            for depth, (weight, bias, _, _) in enumerate(self._conv):
                if depth:
                    stack = self._buffer(("stack", depth), (size, weight.shape[0]))[:rows]
                    hidden = self._stacked(hidden, children, out=stack)
                out = self._buffer(("conv", depth), (size, weight.shape[1]))[:rows]
                if depth < last:
                    padding = _rows_between(self._padding, first, first + rows)
                    hidden = self._tree_conv(depth, hidden, padding, out=out)
            # The last layer pools before it activates: ``fl(x + b)`` and relu
            # are non-decreasing, so the maximum of ``relu(x + b)`` over a
            # plan's real nodes is ``relu(max x + b)`` bit for bit.  The pool
            # skips node 0 (the null node) and the padding past it reads -inf.
            conv = np.matmul(hidden, weight, out=out)
            conv[_rows_between(self._pool_padding, first, first + rows)] = -np.inf
            _max_over_nodes(
                conv.reshape(-1, width, channels)[:, 1:], out=pooled[start:start + BLOCK_PLANS]
            )
        pooled += bias
        np.maximum(pooled, 0.0, out=pooled)
        rank = self._rank
        combined = self._buffer("combined", (n, k, channels + 2 * rank))
        if rank:
            (hint_table, _), (query_table, _) = self._tables
            combined[:, :, channels:channels + rank] = query_table[:n, None]
            combined[:, :, channels + rank:] = hint_table[:k]
        out = combined.reshape(cells, -1)
        out[:, :channels] = pooled
        for j, (weight, bias, _, _) in enumerate(self._head):  # no dropout at inference
            if j:
                np.maximum(out, 0.0, out=out)
            out = np.matmul(out, weight, out=self._buffer(("head", j), (cells, weight.shape[1])))
            out += bias
        return np.clip(np.expm1(out.reshape(n, k)), 0.0, None)
