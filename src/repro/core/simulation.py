"""Simulated offline exploration with an exact exploration-time clock.

The paper's evaluation plots total workload latency against offline
exploration time.  The simulator replays a policy against a fully known
ground-truth latency matrix, charging each executed cell its latency (or
its timeout when censored), and records the workload latency after every
step so the figures can be regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import ExplorationConfig
from ..errors import ExplorationError
from .explorer import MatrixOracle, OfflineExplorer
from .policies import ExplorationPolicy
from .workload_matrix import WorkloadMatrix


@dataclass
class ExplorationTrace:
    """Workload latency as a step function of offline exploration time."""

    times: np.ndarray
    latencies: np.ndarray
    overheads: np.ndarray
    policy_name: str = ""
    default_latency: float = float("nan")
    optimal_latency: float = float("nan")

    def latency_at(self, exploration_time: float) -> float:
        """Workload latency after ``exploration_time`` seconds of exploration."""
        if exploration_time < 0:
            raise ExplorationError("exploration_time must be >= 0")
        idx = np.searchsorted(self.times, exploration_time, side="right") - 1
        if idx < 0:
            return self.default_latency
        return float(self.latencies[idx])

    def overhead_at(self, exploration_time: float) -> float:
        """Cumulative model overhead after ``exploration_time`` seconds."""
        idx = np.searchsorted(self.times, exploration_time, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.overheads[idx])

    def latencies_at(self, exploration_times: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`latency_at`: one ``searchsorted`` over all times."""
        times = np.asarray(exploration_times, dtype=float)
        if times.size and times.min() < 0:
            raise ExplorationError("exploration_time must be >= 0")
        idx = np.searchsorted(self.times, times, side="right") - 1
        return np.where(
            idx < 0, self.default_latency, self.latencies[np.maximum(idx, 0)]
        )

    @property
    def final_latency(self) -> float:
        """Workload latency at the end of the trace."""
        if len(self.latencies) == 0:
            return self.default_latency
        return float(self.latencies[-1])

    @property
    def total_exploration_time(self) -> float:
        """Total offline time consumed by the trace."""
        if len(self.times) == 0:
            return 0.0
        return float(self.times[-1])


class ExplorationSimulator:
    """Runs a policy against a ground-truth matrix and records its trace.

    Parameters
    ----------
    true_latencies:
        Fully known ``n x k`` latency matrix (column 0 is the default hint).
    config:
        Exploration loop configuration shared by all runs.

    As in the paper's protocol, the default-hint column is revealed before
    exploration starts and is *not* charged to the exploration budget --
    those executions happen anyway while serving the workload.
    """

    def __init__(
        self,
        true_latencies: np.ndarray,
        config: Optional[ExplorationConfig] = None,
    ) -> None:
        self.true_latencies = np.asarray(true_latencies, dtype=float)
        if self.true_latencies.ndim != 2:
            raise ExplorationError("true latency matrix must be 2-D")
        self.config = config or ExplorationConfig()

    # -- reference quantities ------------------------------------------------
    @property
    def default_latency(self) -> float:
        """Total workload latency under the default hint (Table 1 "Default")."""
        return float(self.true_latencies[:, 0].sum())

    @property
    def optimal_latency(self) -> float:
        """Oracle best total latency (Table 1 "Optimal")."""
        return float(self.true_latencies.min(axis=1).sum())

    # -- running a policy -----------------------------------------------------
    def initial_matrix(self) -> WorkloadMatrix:
        """A fresh workload matrix, warm-started with the default column."""
        n, k = self.true_latencies.shape
        matrix = WorkloadMatrix(n, k)
        queries = np.arange(n, dtype=np.int64)
        hints = np.zeros(n, dtype=np.int64)
        matrix.observe_batch(queries, hints, self.true_latencies[:, 0])
        return matrix

    def run(
        self,
        policy: ExplorationPolicy,
        time_budget: float = float("inf"),
        max_steps: Optional[int] = None,
        matrix: Optional[WorkloadMatrix] = None,
    ) -> ExplorationTrace:
        """Run ``policy`` until ``time_budget`` and return its trace.

        The trace starts at what the workload runs on before any
        exploration: the default plans, or with ``matrix`` given, the best
        plans that matrix already knows."""
        if matrix is None:
            matrix, start = self.initial_matrix(), self.default_latency
        else:
            start = matrix.workload_latency()
        oracle = MatrixOracle(self.true_latencies)
        explorer = OfflineExplorer(matrix, policy, oracle, self.config)
        steps = explorer.run(time_budget=time_budget, max_steps=max_steps)

        times = [0.0] + [s.cumulative_exploration_time for s in steps]
        latencies = [start] + [s.workload_latency for s in steps]
        overheads = [0.0] + [s.overhead_seconds for s in steps]
        return ExplorationTrace(
            times=np.asarray(times),
            latencies=np.asarray(latencies),
            overheads=np.asarray(overheads),
            policy_name=policy.name,
            default_latency=self.default_latency,
            optimal_latency=self.optimal_latency,
        )
