"""Warm-started incremental ALS refreshes for a cluster shard's matrix.

Feedback moves a shard's workload matrix, and the completed estimate
``Q Hᵀ`` goes stale.  Re-running censored ALS from scratch after every
feedback batch would dominate the shard's CPU, so
:class:`IncrementalALSRefresher` keeps the factor pair of the previous
solve and warm-starts the next one from it: a handful of fill-in iterations
recovers the optimum because a few new observations barely move a
well-conditioned low-rank factorisation.  The cluster's
:class:`~repro.cluster.scheduler.RefreshScheduler` is its one caller, through
:meth:`ClusterShard.refresh <repro.cluster.shard.ClusterShard.refresh>`.

The convergence equivalence (warm refresh reaches the cold-solve objective
up to a tolerance) is asserted in ``tests/test_serving.py``.
"""

from __future__ import annotations

from typing import Optional

from ..config import ALSConfig
from ..core.als import CensoredALSResult
from ..core.matrix_completion import WarmStartedALS
from ..core.workload_matrix import WorkloadMatrix

#: Fill-in iterations per *warm* refresh: enough to re-converge after a
#: feedback batch touching a few percent of the matrix.
REFRESH_ITERATIONS = 3


class IncrementalALSRefresher:
    """Maintains a censored-ALS completion across serving-time updates.

    ``config`` holds the ALS hyper-parameters; ``config.iterations`` is used
    for the initial cold solve, :data:`REFRESH_ITERATIONS` for each warm one.
    """

    def __init__(self, config: Optional[ALSConfig] = None) -> None:
        self.config = config or ALSConfig()
        self._als = WarmStartedALS(self.config)

    # -- state ---------------------------------------------------------------
    @property
    def result(self) -> Optional[CensoredALSResult]:
        """Most recent solve (None before the first refresh)."""
        return self._als.result

    @property
    def cold_solves(self) -> int:
        """Number of from-scratch solves performed."""
        return self._als.cold_solves

    @property
    def warm_refreshes(self) -> int:
        """Number of warm-started refreshes performed."""
        return self._als.warm_solves

    # -- refreshes -------------------------------------------------------------
    def refresh(self, matrix: WorkloadMatrix) -> CensoredALSResult:
        """Bring the completion up to date with the matrix; returns the solve.

        The first call runs a full cold solve; later calls warm-start from
        the previous factors with :data:`REFRESH_ITERATIONS` fill-in
        iterations.  A no-op when the matrix has not changed since the last
        refresh.  Passing a *different* matrix object starts over cold -- the
        cached factors describe the previous matrix, not this one.
        """
        return self._als.solve(matrix, REFRESH_ITERATIONS)
