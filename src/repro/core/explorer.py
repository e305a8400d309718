"""The offline exploration loop (paper Algorithm 1) and execution oracles.

The explorer is agnostic to where latencies come from: it talks to an
*execution oracle* that runs one (query, hint) cell with a timeout and
returns an :class:`~repro.db.executor.ExecutionResult`.  Two oracles ship
with the library:

* :class:`MatrixOracle` -- backed by a fully known ground-truth latency
  matrix (used by the simulator and every benchmark),
* :class:`DatabaseOracle` -- backed by the simulated DBMS substrate
  (planner + latency model), used by the end-to-end examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..config import ExplorationConfig
from ..db.executor import ExecutionResult, HintedExecutor
from ..db.hints import HintSet
from ..db.query import Query
from ..errors import ExplorationError
from .policies import ExplorationPolicy
from .workload_matrix import WorkloadMatrix

#: Steps one :meth:`OfflineExplorer.run` takes at most when the caller names
#: no limit: the backstop of an unbounded time budget (a run also ends when a
#: step finds nothing left to explore).
MAX_STEPS = 10_000


class ExecutionOracle(Protocol):
    """Anything that can execute one workload-matrix cell with a timeout.

    The scalar :meth:`execute` is the whole required surface.  Oracles may
    *additionally* provide an ``execute_many(queries, hints, timeouts)``
    batch entry point (both built-in oracles do); the explorer discovers it
    dynamically and falls back to per-cell :meth:`execute` calls when it is
    absent, so scalar-only oracles keep working unchanged.
    """

    def execute(
        self, query: int, hint: int, timeout: Optional[float] = None
    ) -> ExecutionResult:
        """Run cell (query, hint); censor at ``timeout`` when provided."""
        ...  # pragma: no cover - protocol


class MatrixOracle:
    """Oracle backed by a ground-truth latency matrix."""

    def __init__(self, true_latencies: np.ndarray) -> None:
        self.true_latencies = np.asarray(true_latencies, dtype=float)
        if self.true_latencies.ndim != 2:
            raise ExplorationError("true latency matrix must be 2-D")
        if not np.all(np.isfinite(self.true_latencies)):
            raise ExplorationError("true latency matrix must be fully finite")
        if np.any(self.true_latencies < 0):
            raise ExplorationError("latencies must be non-negative")

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the underlying ground-truth matrix."""
        return self.true_latencies.shape

    def execute(
        self, query: int, hint: int, timeout: Optional[float] = None
    ) -> ExecutionResult:
        latency = float(self.true_latencies[query, hint])
        if timeout is not None and timeout > 0 and latency >= timeout:
            return ExecutionResult(latency=latency, timed_out=True, charged_time=float(timeout))
        return ExecutionResult(latency=latency, timed_out=False, charged_time=latency)

    def execute_many(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ExecutionResult]:
        """Vectorised batch execution: one gather + one comparison pass."""
        query_idx = np.asarray(queries, dtype=np.int64)
        hint_idx = np.asarray(hints, dtype=np.int64)
        if query_idx.shape != hint_idx.shape or query_idx.ndim != 1:
            raise ExplorationError(
                "execute_many needs matching 1-D query and hint index arrays"
            )
        if query_idx.size == 0:
            return []
        latencies = self.true_latencies[query_idx, hint_idx]
        if timeouts is None:
            bounds = np.full(query_idx.size, np.inf)
        else:
            if len(timeouts) != query_idx.size:
                raise ExplorationError(
                    f"got {len(timeouts)} timeouts for {query_idx.size} cells"
                )
            bounds = np.array(
                [np.inf if t is None or t <= 0 else float(t) for t in timeouts]
            )
        timed_out = latencies >= bounds
        charged = np.where(timed_out, bounds, latencies)
        return [
            ExecutionResult(
                latency=float(lat), timed_out=bool(out), charged_time=float(chg)
            )
            for lat, out, chg in zip(latencies, timed_out, charged)
        ]


class DatabaseOracle:
    """Oracle backed by the simulated DBMS (planner + execution engine)."""

    def __init__(
        self,
        executor: HintedExecutor,
        queries: Sequence[Query],
        hint_sets: Sequence[HintSet],
    ) -> None:
        self.executor = executor
        self.queries = list(queries)
        self.hint_sets = list(hint_sets)
        if not self.queries or not self.hint_sets:
            raise ExplorationError("DatabaseOracle needs queries and hint sets")

    @property
    def shape(self) -> Tuple[int, int]:
        """(number of queries, number of hint sets)."""
        return (len(self.queries), len(self.hint_sets))

    def execute(
        self, query: int, hint: int, timeout: Optional[float] = None
    ) -> ExecutionResult:
        if not 0 <= query < len(self.queries):
            raise ExplorationError(f"query index {query} out of range")
        if not 0 <= hint < len(self.hint_sets):
            raise ExplorationError(f"hint index {hint} out of range")
        return self.executor.execute_with_hint(
            self.queries[query], self.hint_sets[hint], timeout=timeout
        )

    def execute_many(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ExecutionResult]:
        """Loop fallback: a real DBMS executes one plan at a time."""
        queries = list(queries)
        hints = list(hints)
        if timeouts is None:
            timeouts = [None] * len(queries)
        return [
            self.execute(int(q), int(h), timeout=t)
            for q, h, t in zip(queries, hints, timeouts)
        ]


@dataclass
class ExplorationStep:
    """Bookkeeping for one iteration of Algorithm 1."""

    index: int
    selected: List[Tuple[int, int]]
    results: List[ExecutionResult]
    exploration_time_delta: float
    cumulative_exploration_time: float
    workload_latency: float
    overhead_seconds: float
    timeouts_used: List[Optional[float]] = field(default_factory=list)

    @property
    def num_censored(self) -> int:
        """How many of this step's executions were cancelled at their timeout."""
        return sum(1 for r in self.results if r.timed_out)


class OfflineExplorer:
    """Runs Algorithm 1 against an execution oracle.

    Parameters
    ----------
    matrix:
        The evolving partially observed workload matrix (mutated in place).
    policy:
        Which cells to execute next.
    oracle:
        Where latencies come from.
    config:
        Batch size ``m``, timeout multiplier ``alpha``, step limits.
    """

    def __init__(
        self,
        matrix: WorkloadMatrix,
        policy: ExplorationPolicy,
        oracle: ExecutionOracle,
        config: Optional[ExplorationConfig] = None,
    ) -> None:
        self.matrix = matrix
        self.policy = policy
        self.oracle = oracle
        self.config = config or ExplorationConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._steps: List[ExplorationStep] = []
        self._cumulative_time = 0.0

    # -- state ---------------------------------------------------------------
    @property
    def steps(self) -> List[ExplorationStep]:
        """All steps taken so far."""
        return list(self._steps)

    @property
    def cumulative_exploration_time(self) -> float:
        """Total offline execution time charged so far (seconds)."""
        return self._cumulative_time

    @property
    def overhead_seconds(self) -> float:
        """Cumulative model overhead of the policy's predictor."""
        return self.policy.overhead_seconds

    # -- the loop ---------------------------------------------------------------
    def step(self) -> Optional[ExplorationStep]:
        """Run one iteration; returns None when nothing is left to explore."""
        selected = self.policy.select(self.matrix, self.config.batch_size, self._rng)
        selected = [pair for pair in selected if not self.matrix.is_observed(*pair)]
        if not selected:
            return None

        results: List[ExecutionResult] = []
        timeouts_used: List[Optional[float]] = []
        time_delta = 0.0
        predicted = self.policy.last_prediction
        # Cells are executed in sub-batches of distinct rows: a timeout
        # depends only on its own row's state (row minimum, observation
        # count), so batching cells that touch different rows is exactly
        # equivalent to the historical one-cell-at-a-time loop, while a
        # repeated row starts a new sub-batch so its timeout still sees the
        # earlier observation.  In practice policies pick one cell per query
        # and the whole step is a single ``execute_many`` call.
        for chunk in self._row_distinct_chunks(selected):
            chunk_timeouts = [
                self._timeout_for(query, hint, predicted) for query, hint in chunk
            ]
            chunk_results = self._execute_chunk(chunk, chunk_timeouts)
            self._record_chunk(chunk, chunk_results)
            results.extend(chunk_results)
            timeouts_used.extend(chunk_timeouts)
            time_delta += sum(r.charged_time for r in chunk_results)

        self._cumulative_time += time_delta
        step = ExplorationStep(
            index=len(self._steps),
            selected=selected,
            results=results,
            exploration_time_delta=time_delta,
            cumulative_exploration_time=self._cumulative_time,
            workload_latency=self.matrix.workload_latency(),
            overhead_seconds=self.policy.overhead_seconds,
            timeouts_used=timeouts_used,
        )
        self._steps.append(step)
        return step

    def run(
        self,
        time_budget: float = float("inf"),
        max_steps: Optional[int] = None,
        max_cells: Optional[int] = None,
    ) -> List[ExplorationStep]:
        """Run steps until the exploration-time budget or step limit is hit
        (``max_steps``, :data:`MAX_STEPS` when None).

        ``max_cells`` caps the number of *cells executed* across the taken
        steps; it is the entry point the online adaptation controller uses
        to keep a drift response within a fixed execution budget (the last
        step may overshoot by at most ``batch_size - 1`` cells).
        """
        if time_budget <= 0:
            raise ExplorationError(f"time_budget must be > 0, got {time_budget}")
        if max_cells is not None and max_cells < 1:
            raise ExplorationError(f"max_cells must be >= 1, got {max_cells}")
        limit = MAX_STEPS if max_steps is None else max_steps
        taken: List[ExplorationStep] = []
        executed = 0
        while len(taken) < limit and self._cumulative_time < time_budget:
            if max_cells is not None and executed >= max_cells:
                break
            step = self.step()
            if step is None:
                break
            taken.append(step)
            executed += len(step.results)
        return taken

    # -- batched execution helpers ------------------------------------------
    @staticmethod
    def _row_distinct_chunks(
        selected: Sequence[Tuple[int, int]]
    ) -> List[List[Tuple[int, int]]]:
        """Split ``selected`` (order preserved) at repeated query rows."""
        chunks: List[List[Tuple[int, int]]] = []
        current: List[Tuple[int, int]] = []
        seen_rows: set = set()
        for pair in selected:
            if pair[0] in seen_rows:
                chunks.append(current)
                current = []
                seen_rows = set()
            current.append(pair)
            seen_rows.add(pair[0])
        if current:
            chunks.append(current)
        return chunks

    def _execute_chunk(
        self,
        chunk: Sequence[Tuple[int, int]],
        timeouts: Sequence[Optional[float]],
    ) -> List[ExecutionResult]:
        """Run one sub-batch through the oracle's fastest entry point."""
        execute_many = getattr(self.oracle, "execute_many", None)
        if execute_many is not None:
            return execute_many(
                [q for q, _ in chunk], [h for _, h in chunk], timeouts
            )
        return [
            self.oracle.execute(query, hint, timeout=timeout)
            for (query, hint), timeout in zip(chunk, timeouts)
        ]

    def _record_chunk(
        self,
        chunk: Sequence[Tuple[int, int]],
        results: Sequence[ExecutionResult],
    ) -> None:
        """Feed a sub-batch's results into the matrix (its rows are distinct,
        so the order between censored and completed cells does not matter).
        On a journaled matrix the censored cells are one batch, one ``censor``
        record; without a journal a few scalar writes cost less than one
        batch (``docs/performance.md``, dead end (b))."""
        censored = [(q, h, r.charged_time) for (q, h), r in zip(chunk, results) if r.timed_out]
        completed = [(q, h, r.latency) for (q, h), r in zip(chunk, results) if not r.timed_out]
        if censored and self.matrix.journal is not None:
            self.matrix.observe_censored_batch(*zip(*censored))
        else:
            for cell in censored:
                self.matrix.observe_censored(*cell)
        if completed:
            self.matrix.observe_batch(*zip(*completed))

    # -- results -------------------------------------------------------------------
    def recommend_hints(self, default_hint: int = 0) -> List[int]:
        """Best observed hint per query; the default hint when nothing observed.

        This is Algorithm 1 lines 13-14 and carries the no-regression
        guarantee: a non-default hint is returned only when its observed
        latency beats every other observation for that query, including the
        default plan's.
        """
        best = self.matrix.best_hint_array()
        return [default_hint if h < 0 else int(h) for h in best]

    # -- internals -------------------------------------------------------------------
    def _timeout_for(
        self, query: int, hint: int, predicted: Optional[np.ndarray]
    ) -> Optional[float]:
        """Algorithm 1 line 10: ``T_ij = min(min(W~_i), alpha * Ŵ_ij)``.

        The prediction-based cap is only applied once the row has at least
        two completed observations: with just the default plan observed the
        model has nothing row-specific to learn from, and a spuriously low
        prediction would censor the candidate at a useless threshold and
        permanently burn the cell.
        """
        row_min = self.matrix.row_min(query)
        candidates = []
        if np.isfinite(row_min):
            candidates.append(row_min)
        prediction_usable = (
            predicted is not None
            and predicted.shape == self.matrix.shape
            and self.matrix.observed_count_in_row(query) >= 2
        )
        if prediction_usable:
            predicted_value = float(predicted[query, hint])
            if np.isfinite(predicted_value) and predicted_value > 0:
                candidates.append(predicted_value * self.config.timeout_alpha)
        if not candidates:
            return None
        return float(min(candidates))
