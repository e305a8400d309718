"""The offline exploration loop (paper Algorithm 1) and execution oracles.

The explorer is agnostic to where latencies come from: it hands an
*execution oracle* a batch of (query, hint) cells with their timeouts
(``execute_many``) and gets one :class:`ExecutionResult` per cell back; a
batch whose lengths differ is refused, not truncated.  The library ships
:class:`MatrixOracle`, backed by a fully known ground-truth latency matrix
(used by the simulator, every benchmark and every example); a real DBMS
plugs in as another :class:`ExecutionOracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..config import ExplorationConfig
from ..errors import ExplorationError
from .policies import ExplorationPolicy
from .workload_matrix import WorkloadMatrix

#: Steps one :meth:`OfflineExplorer.run` takes at most when the caller names
#: no limit: the backstop of an unbounded time budget (a run also ends when a
#: step finds nothing left to explore).
MAX_STEPS = 10_000


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one (query, hint) cell.

    Attributes
    ----------
    latency:
        Observed latency when the plan finished, otherwise the (unknown to
        the caller) true latency; use :attr:`charged_time` for accounting.
    timed_out:
        True when the plan was cancelled at the timeout.
    charged_time:
        Offline exploration time consumed: the full latency for completed
        plans, the timeout for cancelled plans.
    """

    latency: float
    timed_out: bool
    charged_time: float


class ExecutionOracle(Protocol):
    """Anything that can execute workload-matrix cells with timeouts.

    :meth:`execute_many` is the explorer's one entry point; :meth:`execute`
    runs a single cell for callers that search one query at a time.
    """

    def execute(
        self, query: int, hint: int, timeout: Optional[float] = None
    ) -> ExecutionResult:
        """Run cell (query, hint); censor at ``timeout`` when provided."""
        ...  # pragma: no cover - protocol

    def execute_many(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ExecutionResult]:
        """Run the cells ``zip(queries, hints)``, each censored at its entry
        of ``timeouts`` when that is given and > 0."""
        ...  # pragma: no cover - protocol


def cell_timeouts(
    queries: Sequence[int],
    hints: Sequence[int],
    timeouts: Optional[Sequence[Optional[float]]],
) -> Sequence[Optional[float]]:
    """One timeout per cell of an ``execute_many`` batch (``None`` when the
    caller gave none).  A batch whose three sequences differ in length is
    refused: pairing them up would silently drop cells."""
    if len(queries) != len(hints):
        raise ExplorationError(
            f"execute_many got {len(queries)} queries for {len(hints)} hints"
        )
    if timeouts is None:
        return [None] * len(queries)
    if len(timeouts) != len(queries):
        raise ExplorationError(f"got {len(timeouts)} timeouts for {len(queries)} cells")
    return timeouts


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
        timeouts = cell_timeouts(query_idx, hint_idx, timeouts)
        if query_idx.size == 0:
            return []
        latencies = self.true_latencies[query_idx, hint_idx]
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
            chunk_timeouts = self._timeouts_for(chunk, predicted)
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
        """Run one sub-batch through the oracle's batch entry point."""
        return self.oracle.execute_many(
            [q for q, _ in chunk], [h for _, h in chunk], timeouts
        )

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
    def recommend_hints(self) -> List[int]:
        """Best observed hint per query; the default hint (column 0) when
        nothing is observed.

        This is Algorithm 1 lines 13-14 and carries the no-regression
        guarantee: a non-default hint is returned only when its observed
        latency beats every other observation for that query, including the
        default plan's.
        """
        best = self.matrix.best_hint_array()
        return [0 if h < 0 else int(h) for h in best]

    # -- internals -------------------------------------------------------------------
    def _timeouts_for(
        self, chunk: Sequence[Tuple[int, int]], predicted: Optional[np.ndarray]
    ) -> List[Optional[float]]:
        """Algorithm 1 line 10, ``T_ij = min(min(W~_i), alpha * Ŵ_ij)``, for
        a sub-batch of distinct rows: one read of the rows' state, then the
        per-cell arithmetic on Python floats.

        The prediction-based cap is only applied once the row has at least
        two completed observations: with just the default plan observed the
        model has nothing row-specific to learn from, and a spuriously low
        prediction would censor the candidate at a useless threshold and
        permanently burn the cell.
        """
        queries = [query for query, _ in chunk]
        minima, completed = self.matrix.row_stats(queries)
        caps: List[Optional[float]] = [None] * len(chunk)
        if predicted is not None and predicted.shape == self.matrix.shape:
            hints = [hint for _, hint in chunk]
            alpha = self.config.timeout_alpha
            caps = [
                value * alpha if count >= 2 and math.isfinite(value) and value > 0 else None
                for value, count in zip(
                    np.asarray(predicted[queries, hints], dtype=float).tolist(),
                    completed.tolist(),
                )
            ]
        timeouts: List[Optional[float]] = []
        for row_min, cap in zip(minima.tolist(), caps):
            if not math.isfinite(row_min):
                timeouts.append(cap)
            elif cap is None:
                timeouts.append(row_min)
            else:
                timeouts.append(min(row_min, cap))
        return timeouts
