"""The top-level LimeQO facade (Figure 2's whole system).

Wires together the workload matrix, an exploration policy, an execution
oracle, and the online plan cache behind the interface a practitioner would
use:

* register queries (rows) as they are first seen,
* run offline exploration whenever the DBMS is idle,
* answer online lookups with verified plans only.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import ExplorationConfig
from ..errors import ExplorationError
from .explorer import ExecutionOracle, OfflineExplorer
from .plan_cache import DEFAULT_HINT, CacheDecision, PlanCache
from .policies import ExplorationPolicy, LimeQOPolicy
from .workload_matrix import WorkloadMatrix


class LimeQO:
    """Offline query optimization for a repetitive workload.

    Parameters
    ----------
    n_hints:
        Number of hint sets (columns); 49 for the Bao/PostgreSQL hint space.
    oracle:
        Execution oracle used during offline exploration.
    policy:
        Exploration policy; defaults to Algorithm 1 with censored ALS.
    config:
        Exploration loop configuration.

    The DBMS default plan is column :data:`DEFAULT_HINT`.
    """

    def __init__(
        self,
        n_hints: int,
        oracle: ExecutionOracle,
        policy: Optional[ExplorationPolicy] = None,
        config: Optional[ExplorationConfig] = None,
    ) -> None:
        if n_hints < 2:
            raise ExplorationError("LimeQO needs at least two hint sets")
        self.n_hints = int(n_hints)
        self.oracle = oracle
        self.policy = policy or LimeQOPolicy()
        self.config = config or ExplorationConfig()
        self._matrix: Optional[WorkloadMatrix] = None
        self._query_index: Dict[str, int] = {}
        self._explorer: Optional[OfflineExplorer] = None
        self._plan_cache: Optional[PlanCache] = None

    # -- workload management -----------------------------------------------
    @property
    def matrix(self) -> WorkloadMatrix:
        """The underlying workload matrix (created lazily)."""
        if self._matrix is None:
            raise ExplorationError("no queries registered yet")
        return self._matrix

    @property
    def num_queries(self) -> int:
        """Number of registered (cached) queries."""
        return 0 if self._matrix is None else self._matrix.n_queries

    def register_query(self, name: str, default_latency: Optional[float] = None) -> int:
        """Add a query to the workload; returns its row index.

        The first time a query is seen it is executed with the default plan
        (Section 3, "Handling novel queries"), so callers normally provide
        ``default_latency``; when omitted, the oracle is consulted.
        """
        if name in self._query_index:
            return self._query_index[name]
        if self._matrix is None:
            self._matrix = WorkloadMatrix(1, self.n_hints, query_names=[name])
            index = 0
        else:
            index = self._matrix.add_query(name)
        self._query_index[name] = index
        if default_latency is None:
            result = self.oracle.execute(index, DEFAULT_HINT, timeout=None)
            default_latency = result.latency
        self._matrix.observe(index, DEFAULT_HINT, float(default_latency))
        self._explorer = None  # matrix shape changed; rebuild on next explore
        return index

    def query_index(self, name: str) -> int:
        """Row index of a registered query."""
        try:
            return self._query_index[name]
        except KeyError:
            raise ExplorationError(f"unknown query {name!r}") from None

    # -- offline path ---------------------------------------------------------
    def explore(self, time_budget: float) -> List:
        """Run offline exploration for up to ``time_budget`` seconds."""
        if self._matrix is None:
            raise ExplorationError("register queries before exploring")
        if self._explorer is None:
            self._explorer = OfflineExplorer(
                self._matrix, self.policy, self.oracle, self.config
            )
        return self._explorer.run(time_budget=time_budget)

    @property
    def exploration_time(self) -> float:
        """Total offline exploration time charged so far."""
        return 0.0 if self._explorer is None else self._explorer.cumulative_exploration_time

    @property
    def overhead_seconds(self) -> float:
        """Cumulative model overhead of the policy."""
        return self.policy.overhead_seconds

    # -- online path -------------------------------------------------------------
    def plan_cache(self) -> PlanCache:
        """The verified plan cache over the live matrix (cached).

        The cache holds a reference to the evolving matrix, so one instance
        stays valid across exploration; reusing it keeps its decision-array
        snapshot warm.
        """
        matrix = self.matrix
        if self._plan_cache is None or self._plan_cache.matrix is not matrix:
            self._plan_cache = PlanCache(matrix)
        return self._plan_cache

    def lookup(self, name: str) -> CacheDecision:
        """Online lookup: which hint should this query use right now?"""
        return self.plan_cache().lookup(self.query_index(name))

    def workload_latency(self) -> float:
        """Current total workload latency using verified hints (Equation 2)."""
        return self.matrix.workload_latency()

    def summary(self) -> Dict[str, float]:
        """A small status dictionary for dashboards and logs."""
        return {
            "queries": float(self.num_queries),
            "hints": float(self.n_hints),
            "observed_fraction": self.matrix.observed_fraction() if self._matrix else 0.0,
            "workload_latency": self.workload_latency() if self._matrix else float("nan"),
            "exploration_time": self.exploration_time,
            "overhead_seconds": self.overhead_seconds,
        }
