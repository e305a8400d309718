"""Warm-started incremental ALS refreshes for the serving matrix.

When the service feeds fresh observations back into the workload matrix,
the completed estimate ``Q Hᵀ`` that exploration policies (and any
prediction-serving endpoint) rely on goes stale.  Re-running censored ALS
from scratch after every feedback batch would dominate serving-side CPU, so
:class:`IncrementalALSRefresher` keeps the factor pair of the previous
solve and warm-starts the next one from it: a handful of fill-in iterations
recovers the optimum because a few new observations barely move a
well-conditioned low-rank factorisation.

The convergence equivalence (warm refresh reaches the cold-solve objective
up to a tolerance) is asserted in ``tests/test_serving.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import ALSConfig
from ..core.als import CensoredALSResult
from ..core.matrix_completion import WarmStartedALS
from ..core.workload_matrix import WorkloadMatrix
from ..errors import ServingError


class IncrementalALSRefresher:
    """Maintains a censored-ALS completion across serving-time updates.

    Parameters
    ----------
    config:
        ALS hyper-parameters; ``config.iterations`` is used for the initial
        cold solve.
    refresh_iterations:
        Fill-in iterations per *warm* refresh.  The default of 3 is enough
        to re-converge after a feedback batch touching a few percent of the
        matrix; raise it if refreshes arrive rarely and change a lot.
    """

    def __init__(
        self,
        config: Optional[ALSConfig] = None,
        refresh_iterations: int = 3,
    ) -> None:
        if refresh_iterations < 1:
            raise ServingError(
                f"refresh_iterations must be >= 1, got {refresh_iterations}"
            )
        self.config = config or ALSConfig()
        self.refresh_iterations = int(refresh_iterations)
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
        the previous factors with ``refresh_iterations`` fill-in iterations.
        A no-op when the matrix has not changed since the last refresh.
        Passing a *different* matrix object starts over cold -- the cached
        factors describe the previous matrix, not this one.
        """
        return self._als.solve(matrix, self.refresh_iterations)

    def completed_matrix(self, matrix: WorkloadMatrix) -> np.ndarray:
        """The up-to-date completed estimate for ``matrix``."""
        return self.refresh(matrix).completed
