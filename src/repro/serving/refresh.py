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

import weakref
from typing import Optional

import numpy as np

from ..config import ALSConfig
from ..core.als import CensoredALSResult, censored_als
from ..core.workload_matrix import WorkloadMatrix
from ..errors import CompletionError, ServingError


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
        self._result: Optional[CensoredALSResult] = None
        self._matrix_ref: Optional[weakref.ref] = None
        self._matrix_version: Optional[int] = None
        self._cold_solves = 0
        self._warm_refreshes = 0

    # -- state ---------------------------------------------------------------
    @property
    def result(self) -> Optional[CensoredALSResult]:
        """Most recent solve (None before the first refresh)."""
        return self._result

    @property
    def cold_solves(self) -> int:
        """Number of from-scratch solves performed."""
        return self._cold_solves

    @property
    def warm_refreshes(self) -> int:
        """Number of warm-started refreshes performed."""
        return self._warm_refreshes

    # -- refreshes -------------------------------------------------------------
    def refresh(self, matrix: WorkloadMatrix, force_cold: bool = False) -> CensoredALSResult:
        """Bring the completion up to date with the matrix; returns the solve.

        The first call (or ``force_cold=True``) runs a full cold solve; later
        calls warm-start from the previous factors with
        ``refresh_iterations`` fill-in iterations.  A no-op when the matrix
        has not changed since the last refresh.  Passing a *different*
        matrix object starts over cold -- the cached factors describe the
        previous matrix, not this one.
        """
        same_matrix = (
            self._matrix_ref is not None and self._matrix_ref() is matrix
        )
        if (
            self._result is not None
            and not force_cold
            and same_matrix
            and self._matrix_version == matrix.version
        ):
            return self._result

        warm = None
        iterations: Optional[int] = None
        if self._result is not None and not force_cold and same_matrix:
            warm_q, warm_h = self._result.factors
            rank = min(self.config.rank, matrix.n_queries, matrix.n_hints)
            # A rank change (possible when the matrix was tiny) or a shrunken
            # matrix invalidates the warm factors; fall back to a cold solve.
            if (
                warm_q.shape[1] == rank
                and warm_q.shape[0] <= matrix.n_queries
                and warm_h.shape[0] <= matrix.n_hints
            ):
                warm = (warm_q, warm_h)
                iterations = self.refresh_iterations

        def solve(warm_start, iterations):
            # The solver reads values only where the mask is set, so the raw
            # value matrix (``inf`` where unobserved) saves the zero-filling pass.
            return censored_als(
                matrix.values,
                matrix.mask,
                matrix.timeout_matrix,
                config=self.config,
                warm_start=warm_start,
                iterations=iterations,
            )

        try:
            self._result = solve(warm, iterations)
        except CompletionError:
            if warm is None:
                raise
            # Warm factors can diverge across refreshes under a data shift
            # until the ridge no longer conditions the Gram: answer with one
            # cold solve (counted as one); a cold failure propagates typed.
            warm = None
            self._result = solve(None, None)
        self._matrix_ref = weakref.ref(matrix)
        self._matrix_version = matrix.version
        if warm is None:
            self._cold_solves += 1
        else:
            self._warm_refreshes += 1
        return self._result

    def completed_matrix(self, matrix: WorkloadMatrix) -> np.ndarray:
        """The up-to-date completed estimate for ``matrix``."""
        return self.refresh(matrix).completed
