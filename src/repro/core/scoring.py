"""Scoring and candidate selection for Algorithm 1.

The expected improvement ratio (paper Equation 6) compares each query's
current best *observed* latency against the predicted best latency from the
completed matrix; normalising by the predicted best balances workload
improvement against the exploration time the candidate would cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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


def expected_improvement_ratios(
    matrix: WorkloadMatrix, predicted: np.ndarray
) -> np.ndarray:
    """Equation 6's ``r_i`` at each row's predicted-best unexplored hint: the
    scores :class:`~repro.core.policies.LimeQOPolicy` ranks (:func:`best_unexplored`)."""
    return best_unexplored(matrix, predicted)[1]


def predicted_best_hints(
    matrix: WorkloadMatrix, predicted: np.ndarray, only_unknown: bool = True
) -> List[Optional[int]]:
    """For each query, the hint with the lowest predicted latency.

    With ``only_unknown`` the argmin is restricted to entries not yet
    executed; returns ``None`` for rows with nothing left to explore.
    """
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != matrix.shape:
        raise ExplorationError("predicted matrix shape mismatch")
    if not only_unknown:
        return [int(h) for h in predicted.argmin(axis=1)]
    best, _ = best_unexplored(matrix, predicted)
    exhausted = matrix.known_cells()[2] == matrix.n_hints
    return [None if done else h for h, done in zip(best.tolist(), exhausted.tolist())]


def select_top_m(
    scores: Sequence[float],
    candidates: Sequence[Tuple[int, int]],
    m: int,
    require_positive: bool = True,
) -> List[Tuple[int, int]]:
    """Pick the ``m`` candidates with the largest scores (Algorithm 1 line 7).

    Parameters
    ----------
    scores:
        One score per candidate (same length as ``candidates``).
    candidates:
        (query, hint) pairs.
    m:
        How many to select.
    require_positive:
        When True, only candidates with a strictly positive score qualify
        (Algorithm 1 line 6 keeps only ``r_i > 0``).
    """
    if len(scores) != len(candidates):
        raise ExplorationError(
            f"got {len(scores)} scores for {len(candidates)} candidates"
        )
    if m < 1:
        raise ExplorationError(f"m must be >= 1, got {m}")
    scored = list(zip(scores, range(len(candidates))))
    if require_positive:
        scored = [(s, idx) for s, idx in scored if s > 0]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [candidates[idx] for _, idx in scored[:m]]
