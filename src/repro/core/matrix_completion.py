"""Matrix-completion solvers compared in the paper (Figure 17).

Three completers behind one interface:

* :class:`ALSCompleter` -- the censored alternating-least-squares method the
  paper adopts (Algorithm 2),
* :class:`SVTCompleter` -- singular value thresholding (Cai et al. 2010),
* :class:`NuclearNormCompleter` -- nuclear-norm minimisation approximated by
  the Soft-Impute iteration (iteratively soft-thresholded SVD), which solves
  the same convex relaxation without an external SDP solver.

All completers fill the same (observed, mask) pair; ALS also takes the
censoring bounds of :class:`~repro.core.workload_matrix.WorkloadMatrix`
through :meth:`ALSCompleter.complete_result`.
:class:`WarmStartedALS` carries an ALS completion of one live matrix across
its changes, for the exploration predictor and the serving refresher alike.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Optional, Tuple, Union

import numpy as np

from ..config import ALSConfig
from ..errors import CompletionError
from .als import CensoredALSResult, censored_als

#: SVT's dual step size.
SVT_STEP = 1.2
#: Iteration caps of the two SVD-based completers, and the relative change
#: below which each stops early.
SVT_ITERATIONS = 150
SVT_TOLERANCE = 1e-4
SOFT_IMPUTE_ITERATIONS = 300
SOFT_IMPUTE_TOLERANCE = 1e-6


class MatrixCompleter(ABC):
    """Interface shared by all matrix-completion solvers."""

    name = "base"

    @abstractmethod
    def complete(self, observed: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Return a fully filled matrix of the same shape as ``observed``."""

    @staticmethod
    def _validate(observed: np.ndarray, mask: np.ndarray) -> None:
        observed = np.asarray(observed)
        mask = np.asarray(mask)
        if observed.ndim != 2 or mask.shape != observed.shape:
            raise CompletionError(
                f"observed {observed.shape} and mask {mask.shape} must be matching 2-D arrays"
            )
        if mask.sum() == 0:
            raise CompletionError("observation mask is empty")


class ALSCompleter(MatrixCompleter):
    """Censored ALS (the paper's choice)."""

    name = "als"

    def __init__(self, config: Optional[ALSConfig] = None) -> None:
        self.config = config or ALSConfig()

    def complete(self, observed: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.complete_result(observed, mask).completed

    def complete_result(
        self,
        observed,
        mask: Optional[np.ndarray] = None,
        timeouts: Optional[np.ndarray] = None,
        warm_start: Union[Tuple[np.ndarray, np.ndarray], CensoredALSResult, None] = None,
        iterations: Optional[int] = None,
    ) -> CensoredALSResult:
        """Full solver output, including the ``(Q, H)`` factor pair.

        Everything passes straight through to
        :func:`~repro.core.als.censored_als` (``observed`` may be a matrix's
        ``solver_cells()`` in place of the triple), which checks its input
        itself; :class:`WarmStartedALS` solves through this entry point.
        """
        return censored_als(
            observed,
            mask,
            timeouts,
            self.config,
            warm_start=warm_start,
            iterations=iterations,
        )


class WarmStartedALS:
    """A censored-ALS completion kept up to date with one live matrix: the
    one implementation of the warm-start decision.

    It remembers its last solve with the matrix (weakly) and version it
    describes, and per call returns it (matrix unchanged), refreshes it from
    its own ``(Q, H)`` with a few fill-in iterations, or solves cold: on
    first use, for a *different* matrix object (the factors describe the
    previous one), on request, and when the warm attempt fails.

    A warm refresh is handed the whole last result, so when the matrix kept
    its shape it starts from that result's ``completed`` -- ``Q Hᵀ`` once
    the product at its known cells is put back -- and writes the new
    estimate into the same buffer (:func:`~repro.core.als.censored_als`).
    A returned ``completed`` is therefore valid until the holder's next
    solve; a caller that writes into it restores it or copies it.
    """

    def __init__(self, config: Optional[ALSConfig] = None) -> None:
        self.completer = ALSCompleter(config)
        self.result: Optional[CensoredALSResult] = None
        self._matrix_ref: Optional[weakref.ref] = None
        self._matrix_version: Optional[int] = None
        self.cold_solves = 0
        self.warm_solves = 0
        self.warm_streak = 0  # warm solves since the last cold one

    def reset(self) -> None:
        """Drop the carried solve; the next one is cold."""
        self.result = None
        self.warm_streak = 0

    def solve(
        self, matrix, warm_iterations: int, anchor_iterations: Optional[int] = None
    ) -> CensoredALSResult:
        """The completion of ``matrix`` as it stands.  ``anchor_iterations``
        makes a needed solve of the same matrix a cold one of that many
        iterations (a re-anchor); first solves and the fallback below run
        ``config.iterations``."""
        same_matrix = self.result is not None and self._matrix_ref() is matrix
        if same_matrix and self._matrix_version == matrix.version:
            return self.result

        warm = same_matrix and anchor_iterations is None
        previous = self.result if warm else None
        iterations = warm_iterations if warm else (anchor_iterations if same_matrix else None)
        cells = matrix.solver_cells()
        try:
            result = self.completer.complete_result(
                cells,
                warm_start=previous,
                iterations=iterations,
            )
        except CompletionError:
            if previous is None:
                raise
            # The solver turns away factors that no longer fit (a rank change
            # while the matrix is tiny, a shrunken matrix) before doing any
            # work, and fails on diverged ones -- a data shift can grow them
            # across refreshes until the ridge no longer conditions the Gram.
            # Either way: one cold solve, counted as one; its failure
            # propagates typed.
            previous = None
            result = self.completer.complete_result(cells)
        self.result = result
        self._matrix_ref = weakref.ref(matrix)
        self._matrix_version = matrix.version
        if previous is None:
            self.cold_solves += 1
            self.warm_streak = 0
        else:
            self.warm_solves += 1
            self.warm_streak += 1
        return result


class SVTCompleter(MatrixCompleter):
    """Singular Value Thresholding.

    Iterates ``Y += step * M ⊙ (W - shrink(Y))`` where ``shrink`` soft-
    thresholds the singular values at ``tau = 5 sqrt(n k)``.  Struggles at
    very low fill fractions -- the behaviour Figure 17 documents.
    """

    name = "svt"

    def complete(self, observed: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._validate(observed, mask)
        mask = np.asarray(mask, dtype=float)
        observed_filled = np.where(mask > 0, np.asarray(observed, dtype=float), 0.0)
        n, k = observed_filled.shape
        # Cai et al. recommend a threshold of roughly 5 * sqrt(n * k); smaller
        # values over-shrink the recovered spectrum.
        tau = 5.0 * np.sqrt(n * k)
        dual = SVT_STEP * observed_filled * mask
        estimate = np.zeros_like(observed_filled)
        norm_observed = np.linalg.norm(observed_filled * mask)
        if norm_observed == 0:
            raise CompletionError("SVT cannot run: all observed entries are zero")
        for _ in range(SVT_ITERATIONS):
            u, s, vt = np.linalg.svd(dual, full_matrices=False)
            s_shrunk = np.maximum(s - tau, 0.0)
            estimate = (u * s_shrunk) @ vt
            residual = mask * (observed_filled - estimate)
            dual = dual + SVT_STEP * residual
            if np.linalg.norm(residual) / norm_observed < SVT_TOLERANCE:
                break
        completed = mask * observed_filled + (1.0 - mask) * estimate
        return np.maximum(completed, 0.0)


class NuclearNormCompleter(MatrixCompleter):
    """Nuclear-norm minimisation via the Soft-Impute iteration.

    Repeatedly fills the missing entries with the current estimate and
    soft-thresholds the singular values, converging to the solution of the
    convex nuclear-norm relaxation.  Accurate but noticeably slower than ALS
    -- the trade-off Figure 17 illustrates.
    """

    name = "nuc"

    def complete(self, observed: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._validate(observed, mask)
        mask = np.asarray(mask, dtype=float)
        observed_filled = np.where(mask > 0, np.asarray(observed, dtype=float), 0.0)
        # Shrinkage: a small fraction of the top singular value, so the
        # solution keeps most of the observed structure.
        top_singular = np.linalg.svd(observed_filled, compute_uv=False)[0]
        lam = 0.01 * top_singular
        estimate = np.zeros_like(observed_filled)
        for _ in range(SOFT_IMPUTE_ITERATIONS):
            filled = mask * observed_filled + (1.0 - mask) * estimate
            u, s, vt = np.linalg.svd(filled, full_matrices=False)
            s_shrunk = np.maximum(s - lam, 0.0)
            new_estimate = (u * s_shrunk) @ vt
            change = np.linalg.norm(new_estimate - estimate) / (
                np.linalg.norm(estimate) + 1e-12
            )
            estimate = new_estimate
            if change < SOFT_IMPUTE_TOLERANCE:
                break
        completed = mask * observed_filled + (1.0 - mask) * estimate
        return np.maximum(completed, 0.0)


def completion_mse(
    truth: np.ndarray, completed: np.ndarray, holdout_mask: Optional[np.ndarray] = None
) -> float:
    """Mean squared error of ``completed`` against ``truth``.

    When ``holdout_mask`` is given, only entries where it is non-zero count
    (the usual train/test split for matrix completion benchmarks).
    """
    truth = np.asarray(truth, dtype=float)
    completed = np.asarray(completed, dtype=float)
    if truth.shape != completed.shape:
        raise CompletionError(
            f"shape mismatch: truth {truth.shape} vs completed {completed.shape}"
        )
    if holdout_mask is None:
        diff = truth - completed
        return float(np.mean(diff ** 2))
    holdout_mask = np.asarray(holdout_mask, dtype=bool)
    if holdout_mask.shape != truth.shape:
        raise CompletionError("holdout mask shape mismatch")
    if not holdout_mask.any():
        raise CompletionError("holdout mask selects no entries")
    diff = truth[holdout_mask] - completed[holdout_mask]
    return float(np.mean(diff ** 2))
