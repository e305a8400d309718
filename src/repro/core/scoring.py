"""Candidate scoring for Algorithm 1.

The expected improvement ratio (paper Equation 6) compares each query's
current best *observed* latency against the predicted best latency from the
completed matrix; normalising by the predicted best balances workload
improvement against the exploration time the candidate would cost.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ExplorationError
from .workload_matrix import WorkloadMatrix


def best_unexplored(
    matrix: WorkloadMatrix, predicted: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's predicted-best *unexplored* hint and its Equation 6 ratio.

    ``r_i = (min W~_i - Ŵ_ih) / Ŵ_ih`` at the hint ``h`` with the lowest
    predicted latency among those never executed (the first on a tie); rows
    with no observation yet get ``+inf`` (any observation is an improvement
    over nothing), rows with nothing left to execute get ``-inf`` (and hint
    0).  The known cells of ``predicted`` are set to ``inf`` through the
    matrix's kept flat indices for one row argmin and put back, which costs
    less than a copy; ``predicted`` is copied only if read-only or not C-ordered.
    """
    predicted = np.require(predicted, float, ("C", "W"))
    if predicted.shape != matrix.shape:
        raise ExplorationError(
            f"predicted matrix shape {predicted.shape} does not match workload "
            f"matrix shape {matrix.shape}"
        )
    n, k = matrix.shape
    observed, censored, known = matrix.known_cells()
    flat = predicted.reshape(-1)
    saved = flat[observed], flat[censored]
    try:
        flat[observed] = flat[censored] = np.inf
        best = predicted.argmin(axis=1)
    finally:
        flat[observed], flat[censored] = saved
    current_best = matrix.row_minima()
    predicted_best = np.maximum(flat[best + np.arange(0, n * k, k)], 1e-9)
    with np.errstate(invalid="ignore"):
        gain = (current_best - predicted_best) / predicted_best
    ratios = np.where(np.isinf(current_best), np.inf, gain)
    ratios[known == k] = -np.inf
    return best, ratios
