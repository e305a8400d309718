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

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..config import ExplorationConfig
from ..core.explorer import OfflineExplorer
from ..core.policies import ExplorationPolicy, LimeQOPolicy
from ..core.workload_matrix import WorkloadMatrix
from ..db.executor import ExecutionResult
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
        latency = float(self.lookup(int(query), int(hint)))
        if timeout is not None and timeout > 0 and latency >= timeout:
            return ExecutionResult(
                latency=latency, timed_out=True, charged_time=float(timeout)
            )
        return ExecutionResult(latency=latency, timed_out=False, charged_time=latency)

    def execute_many(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ExecutionResult]:
        """Loop adapter: a live backend executes one plan at a time."""
        if timeouts is None:
            timeouts = [None] * len(queries)
        return [
            self.execute(int(q), int(h), timeout=t)
            for q, h, t in zip(queries, hints, timeouts)
        ]


class _RowScopedPolicy(ExplorationPolicy):
    """Restricts an exploration policy's picks to a fixed set of rows.

    The inner policy still sees the whole matrix -- its completed ``Ŵ``
    keeps transferring structure from healthy rows -- but only cells in
    the scoped rows are executed, so a response's live-execution budget
    cannot leak onto rows that never drifted.  When the inner policy's
    batch contains too few scoped rows, the batch is topped up with each
    remaining scoped row's predicted-best unknown cell (first unknown
    column for model-free policies), in ascending row order so replays
    stay deterministic.  Progress is guaranteed: any scoped row with an
    unknown cell yields a pick.
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
        predicted = self.inner.last_prediction
        usable = predicted is not None and predicted.shape == matrix.shape
        unknown = matrix.unknown_mask()
        taken_rows = {pair[0] for pair in picks}
        for row in self._rows[: np.searchsorted(self._rows, limit)].tolist():
            if len(picks) >= batch_size:
                break
            if row in taken_rows:
                continue
            columns = np.nonzero(unknown[row])[0]
            if columns.size == 0:
                continue
            if usable:
                column = int(columns[np.argmin(predicted[row, columns])])
            else:
                column = int(columns[0])
            picks.append((row, column))
            taken_rows.add(row)
        return picks


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
        policy = LimeQOPolicy()
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size == 0:
                return 0
            policy = _RowScopedPolicy(policy, rows)
        explorer = OfflineExplorer(self.matrix, policy, self.oracle, self.config)
        steps = explorer.run(max_cells=max_cells)
        return sum(len(step.results) for step in steps)
