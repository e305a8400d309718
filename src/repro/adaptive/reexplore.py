"""Budgeted online re-exploration against the live serving matrix.

When the controller decides a set of rows went stale it needs fresh
measurements, and the machinery for choosing *which* cells to execute
already exists: Algorithm 1 (:class:`~repro.core.explorer.OfflineExplorer`)
with any exploration policy.  :class:`OnlineReexplorer` reuses it verbatim
against the serving matrix -- invalidated rows have an infinite current
best, so LimeQO's Equation-6 ratio ranks them first automatically -- with
two serving-specific twists:

* **anchoring**: before exploring, the default plan of every responding
  row is re-executed and observed, because the no-regression guarantee is
  anchored to an *up-to-date* default observation (the paper assumes the
  default is measured "as part of normal operation");
* **budgeting**: every response is capped at a fixed number of live cell
  executions (:meth:`explore` forwards ``max_cells`` to the explorer), so
  adaptation can never monopolise the execution backend.

:class:`RowOracle` adapts any ``(row, hint) -> latency`` callable -- the
scenario engine's mutable ground truth, or a real DBMS round trip -- to the
:class:`~repro.core.explorer.ExecutionOracle` protocol.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..config import ALSConfig, ExplorationConfig
from ..core.explorer import ExecutionResult, OfflineExplorer, cell_timeouts
from ..core.policies import ExplorationPolicy, LimeQOPolicy
from ..core.predictors import RE_ANCHOR_SWEEPS
from ..core.workload_matrix import WorkloadMatrix
from ..errors import AdaptiveError


class RowOracle:
    """Execution oracle over a live ``(row, hint) -> latency`` callable."""

    def __init__(self, lookup: Callable[[int, int], float]) -> None:
        if not callable(lookup):
            raise AdaptiveError("RowOracle needs a callable (row, hint) lookup")
        self.lookup = lookup

    def execute(
        self, query: int, hint: int, timeout: Optional[float] = None
    ) -> ExecutionResult:
        return self.execute_many([query], [hint], [timeout])[0]

    def execute_many(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ExecutionResult]:
        """One pass over a batch (a live backend executes one plan at a
        time); a cell is censored at its timeout unless that is ``None`` or
        <= 0."""
        timeouts = cell_timeouts(queries, hints, timeouts)
        lookup = self.lookup
        results = []
        for q, h, t in zip(queries, hints, timeouts):
            latency = float(lookup(int(q), int(h)))
            if t is not None and t > 0 and latency >= t:
                results.append(ExecutionResult(latency, True, float(t)))
            else:
                results.append(ExecutionResult(latency, False, latency))
        return results


class _RowScopedPolicy(ExplorationPolicy):
    """Restricts an exploration policy's picks to a fixed set of rows.

    The inner policy still sees the whole matrix -- its completed ``Ŵ``
    keeps transferring structure from healthy rows -- but only cells in
    the scoped rows are executed, so a response's live-execution budget
    cannot leak onto rows that never drifted.  When the inner policy's
    batch contains too few scoped rows, the batch is topped up in passes
    over the open scoped rows (those with an unknown cell), rows ascending
    so replays stay deterministic: pass 1 takes each row the inner policy
    did not pick at its predicted-best unknown cell (first unknown column
    for model-free policies); when the open rows are fewer than the batch,
    pass ``p`` takes each open row's ``p``-th best unknown cell not picked
    yet.  A step is full while the scope has unknown cells; the explorer
    executes a repeated row in a later sub-batch, so its timeout sees the
    earlier observation.
    """

    name = "row-scoped"

    def __init__(self, inner: ExplorationPolicy, rows) -> None:
        super().__init__()
        self.inner = inner
        self._rows = np.unique(np.asarray(rows, dtype=np.int64))
        # Row -> in scope?  Built once: ``select`` runs every step.
        self._in_scope = np.zeros(int(self._rows.max(initial=-1)) + 1, dtype=bool)
        self._in_scope[self._rows] = True

    @property
    def overhead_seconds(self) -> float:
        return self.inner.overhead_seconds

    @property
    def last_prediction(self):
        return self.inner.last_prediction

    def select(self, matrix, batch_size, rng):
        # Scoped rows past the end of the matrix (migrated away) are out.
        limit = min(matrix.n_queries, self._in_scope.size)
        picks = [
            pair
            for pair in self.inner.select(matrix, batch_size, rng)
            if pair[0] < limit and self._in_scope[pair[0]]
        ]
        if len(picks) >= batch_size:
            return picks[:batch_size]
        # The top-up reads only the open scoped rows: full ones are skipped
        # by their count of executed cells, and no n x k mask is built.
        rows = self._rows[: np.searchsorted(self._rows, limit)]
        rows = rows[matrix.known_cells()[2][rows] < matrix.n_hints]
        fresh = rows
        if picks:
            taken_rows = {pair[0] for pair in picks}
            fresh = rows[[row not in taken_rows for row in rows.tolist()]]
        fresh = fresh[: batch_size - len(picks)]
        predicted = self.inner.last_prediction
        if predicted is not None and predicted.shape != matrix.shape:
            predicted = None
        if fresh.size:
            picks.extend(zip(fresh.tolist(), _best_unknown(matrix, fresh, predicted)))
        if len(picks) < batch_size and rows.size:
            picks.extend(_later_passes(matrix, rows, picks, batch_size - len(picks), predicted))
        return picks


def _best_unknown(matrix, rows, predicted) -> list:
    """Pass 1 of the top-up, per row of ``rows`` (all open): the unknown
    column of least ``predicted`` -- the first on a tie or at a ``nan``, as
    ``np.argmin`` over the row's unknown columns takes it -- or the first
    unknown column without a prediction."""
    unknown = matrix.unknown_mask(rows)
    first_unknown = unknown.argmax(axis=1)
    if predicted is None:
        return first_unknown.tolist()
    best = np.where(unknown, predicted[rows], np.inf).argmin(axis=1)
    # A row whose unknown columns all predict +inf ties with the masked-out
    # known ones; ``argmin`` over its unknown columns takes the first.
    masked_out = ~unknown[np.arange(rows.size), best]
    best[masked_out] = first_unknown[masked_out]
    return best.tolist()


def _later_passes(matrix, rows, picks, needed, predicted) -> list:
    """Passes 2, 3, ... of the top-up: up to ``needed`` cells, each pass
    one per open row (ascending) at the row's best unknown cell not in
    ``picks`` -- by ``predicted`` (stable order), or by column without one.
    Only these rows' columns are ever sorted, and only when pass 1 left
    the batch short."""
    picked = set(picks)
    orders = []
    for row, unknown in zip(rows.tolist(), matrix.unknown_mask(rows)):
        columns = np.flatnonzero(unknown)
        if predicted is not None:
            columns = columns[np.argsort(predicted[row, columns], kind="stable")]
        # A row gives at most ``needed`` cells, and ``picks`` hides at most
        # ``len(picks)`` of its columns.
        cells = [(row, column) for column in columns[: needed + len(picks)].tolist()]
        orders.append([cell for cell in cells if cell not in picked])
    passes = itertools.zip_longest(*orders)
    return [cell for cells in passes for cell in cells if cell is not None][:needed]


class OnlineReexplorer:
    """Algorithm 1, scoped to drift responses on a live matrix."""

    def __init__(
        self,
        matrix: WorkloadMatrix,
        oracle,
        config: Optional[ExplorationConfig] = None,
    ) -> None:
        self.matrix = matrix
        self.oracle = oracle
        self.config = config or ExplorationConfig(batch_size=8)

    def remeasure_rows(self, rows, hint: int) -> int:
        """Re-execute ``hint`` (typically the default plan) for ``rows``.

        Runs to completion -- no censoring -- because these observations
        re-anchor the no-regression guarantee.  Returns the number of live
        executions charged against the response budget.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        hints = np.full(rows.size, int(hint), dtype=np.int64)
        results = self.oracle.execute_many(rows.tolist(), hints.tolist(), None)
        self.matrix.observe_batch(
            rows, hints, [result.latency for result in results]
        )
        return int(rows.size)

    def explore(self, max_cells: int, rows=None) -> int:
        """Run a fresh budgeted explorer over the live matrix.

        With ``rows`` the executed cells are restricted to those rows (the
        response's drifted/unseen set, the recovery backlog) via
        :class:`_RowScopedPolicy` -- the policy's model still reads the
        whole matrix, but live executions cannot leak onto healthy rows.
        A new policy (and therefore a cold predictor) per response keeps
        replay deterministic: the response depends only on the matrix
        state, never on how many responses preceded it.  Returns the cells
        actually executed.
        """
        if max_cells < 1:
            return 0
        # The cold first solve is a re-anchor's sweeps: warm steps and the
        # periodic re-anchor refine it as they do in any exploration.
        policy = LimeQOPolicy(als_config=ALSConfig(iterations=RE_ANCHOR_SWEEPS))
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size == 0:
                return 0
            policy = _RowScopedPolicy(policy, rows)
        explorer = OfflineExplorer(self.matrix, policy, self.oracle, self.config)
        steps = explorer.run(max_cells=max_cells)
        return sum(len(step.results) for step in steps)
