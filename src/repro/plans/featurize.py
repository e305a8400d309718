"""Featurisation of workload-matrix cells for the neural method.

A *feature store* maps a (query, hint) cell to a featurised plan tree.  The
TCNN trainer asks the store for batches: padded arrays of node features and
child indices (see :class:`TreeBatch`).

The library's store is :class:`SyntheticPlanFeatureStore`: a workload
exists only as a latency matrix, so it derives deterministic pseudo-plans
from latent query/hint factors, and plan features remain predictive of
latency -- the property LimeQO+ exploits.  A store of real (``EXPLAIN``)
plans would subclass :class:`_FullBatchCacheMixin`; :func:`pack_trees` and
the trainer already take trees of unequal size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError

#: Physical operators a plan node is one-hot over: Bao's three joins (hash,
#: merge, nested loop) and three scans (sequential, index, index-only).
NUM_OPERATORS = 6
#: A node's features: the operator one-hot, then two numeric columns.
NODE_FEATURE_DIM = NUM_OPERATORS + 2
#: One featurised plan: ``(nodes, left, right)`` arrays, null node first.
Tree = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class TreeBatch:
    """A batch of padded plan trees ready for tree convolution.

    Attributes
    ----------
    stacked:
        ``(batch, max_nodes, 3 * NODE_FEATURE_DIM)``: every node's features
        followed by its left and its right child's, ``[node | left | right]``
        -- the tree convolution's input as it multiplies it.  Row 0 of every
        sample is the all-zero null node, which missing children point at.
    left / right:
        ``(batch, max_nodes)`` integer child indices into the node axis.
    mask:
        ``(batch, max_nodes)`` 1.0 for real nodes, 0.0 for padding and the
        null node.
    """

    stacked: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mask: np.ndarray

    @property
    def max_nodes(self) -> int:
        """Padded node count per plan."""
        return self.stacked.shape[1]

    def take(self, index) -> "TreeBatch":
        """Sub-batch along the plan axis (``index`` is a slice or int array).

        The tree convolution is width-invariant -- padded nodes are masked
        out and never selected by the dynamic pooling -- so slicing a wide
        pre-packed batch produces exactly the same model outputs as packing
        the sub-batch from scratch.  This is what lets the trainer take its
        mini-batches and the cells it is asked about out of the store's
        packed plan space instead of featurising and padding per call.
        """
        return TreeBatch(
            stacked=self.stacked[index],
            left=self.left[index],
            right=self.right[index],
            mask=self.mask[index],
        )


def pack_trees(
    trees: Iterable[Tree], count: Optional[int] = None, max_nodes: Optional[int] = None
) -> TreeBatch:
    """Pad individual (nodes, left, right) arrays into one :class:`TreeBatch`.

    Each tree is written straight into the stacked array, so with ``count``
    and ``max_nodes`` given ``trees`` can be a generator and no tree outlives
    its own row.
    """
    if count is None or max_nodes is None:
        trees = list(trees)
        count = len(trees)
        max_nodes = max((nodes.shape[0] for nodes, _, _ in trees), default=0)
    if not count:
        raise PlanError("cannot pack an empty list of trees")
    dim = NODE_FEATURE_DIM
    stacked = np.zeros((count, max_nodes, 3 * dim), dtype=float)
    left = np.zeros((count, max_nodes), dtype=np.int64)
    right = np.zeros((count, max_nodes), dtype=np.int64)
    mask = np.zeros((count, max_nodes), dtype=float)
    for b, (node_arr, left_arr, right_arr) in enumerate(trees):
        size = node_arr.shape[0]
        stacked[b, :size, :dim] = node_arr
        stacked[b, :size, dim:2 * dim] = node_arr[left_arr]
        stacked[b, :size, 2 * dim:] = node_arr[right_arr]
        left[b, :size] = left_arr
        right[b, :size] = right_arr
        mask[b, 1:size] = 1.0  # position 0 is the null node
    return TreeBatch(stacked=stacked, left=left, right=right, mask=mask)


class _FullBatchCacheMixin:
    """The packed full-matrix :class:`TreeBatch`, built once.

    Plans are deterministic per cell and a store's shape is fixed, so the
    plan space is a constant of the workload: it is featurised, padded and
    stacked exactly once (on first use, not at construction), and every fit
    and every full-matrix prediction after that reads the same arrays.
    A store provides ``shape`` and ``batch(cells)``.
    """

    def full_batch(self) -> TreeBatch:
        """One padded batch covering every cell in row-major order (cached)."""
        cached = getattr(self, "_full_batch", None)
        if cached is None:
            n, k = self.shape
            cached = self._full_batch = self.batch([(q, h) for q in range(n) for h in range(k)])
        return cached


#: Operator nodes in each synthetic plan tree.
NODES_PER_PLAN = 7


class SyntheticPlanFeatureStore(_FullBatchCacheMixin):
    """Derives pseudo-plan features from latent workload factors.

    Used when a workload is generated directly as a latency matrix with
    known latent query/hint factors (see
    :class:`repro.workloads.matrices.SyntheticWorkload`).  Each cell gets a
    small deterministic binary tree whose node features are noisy functions
    of the latent factors, so a tree convolution can genuinely learn to
    predict latency from "plan features" -- the property that makes LimeQO+
    converge faster than the linear method in the paper.  Every tree has
    :data:`NODES_PER_PLAN` operator nodes.
    """

    def __init__(
        self,
        query_factors: np.ndarray,
        hint_factors: np.ndarray,
        noise: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.query_factors = np.asarray(query_factors, dtype=float)
        self.hint_factors = np.asarray(hint_factors, dtype=float)
        if self.query_factors.ndim != 2 or self.hint_factors.ndim != 2:
            raise PlanError("latent factors must be 2-D arrays")
        if self.query_factors.shape[1] != self.hint_factors.shape[1]:
            raise PlanError("query and hint factors must share the latent dimension")
        self.noise = float(noise)
        self.seed = int(seed)

    @property
    def shape(self) -> Tuple[int, int]:
        """(number of queries, number of hint sets)."""
        return (self.query_factors.shape[0], self.hint_factors.shape[0])

    def _derive(self, query: int, hint: int) -> Tree:
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + query * 49_999 + hint * 101) % (2 ** 32)
        )
        count = NODES_PER_PLAN + 1  # +1 null node
        nodes = np.zeros((count, NODE_FEATURE_DIM), dtype=float)
        left = np.zeros(count, dtype=np.int64)
        right = np.zeros(count, dtype=np.int64)

        signal = float(self.query_factors[query] @ self.hint_factors[hint])
        q_norm = float(np.linalg.norm(self.query_factors[query]))
        h_norm = float(np.linalg.norm(self.hint_factors[hint]))
        for i in range(1, count):
            op = int(rng.integers(0, NUM_OPERATORS))
            nodes[i, op] = 1.0
            nodes[i, -2] = np.log1p(abs(signal)) + rng.normal(0.0, self.noise)
            nodes[i, -1] = np.log1p(q_norm * h_norm) + rng.normal(0.0, self.noise)
        # Left-deep pseudo-structure: node i's left child is node i+1.
        for i in range(1, count - 1):
            left[i] = i + 1
        return nodes, left, right

    def batch(self, cells: Sequence[Tuple[int, int]]) -> TreeBatch:
        """Pseudo-plans for a batch of cells, derived row by row.

        Nothing caches a cell's tree: that would keep a second copy of what
        the pack holds (7 MB beside 8.5 MB at JOB size).
        """
        return pack_trees(
            (self._derive(q, h) for q, h in cells), len(cells), NODES_PER_PLAN + 1
        )
