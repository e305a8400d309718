"""A BayesQO-style per-query optimizer baseline (paper Section 5.6).

BayesQO optimises one query at a time with Bayesian optimisation over the
plan space.  For Figure 18's comparison the paper gives every query a fixed
budget (three seconds) and measures how much of the workload improves.  The
essential contrast is the *allocation* strategy -- per-query, evenly split
time versus LimeQO's workload-level allocation -- so this baseline models
BayesQO as sequential model-based search within each query's own budget:

* a light-weight surrogate (distance-weighted estimate over the hints
  already tried, using hint-hint similarity from latent factors when
  available, otherwise the column means of whatever has been observed),
* expected-improvement-style acquisition with an exploration bonus,
* execution charged against the per-query budget, censored at the
  remaining budget.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.explorer import ExecutionOracle
from ..core.workload_matrix import WorkloadMatrix
from ..errors import ExplorationError

#: Weight of the uncertainty bonus in the lower-confidence-bound acquisition.
EXPLORATION_WEIGHT = 0.3


class BayesQO:
    """Per-query, fixed-budget, model-based hint search."""

    def __init__(
        self,
        oracle: ExecutionOracle,
        n_hints: int,
        per_query_budget: float = 3.0,
        hint_factors: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> None:
        if per_query_budget <= 0:
            raise ExplorationError("per_query_budget must be > 0")
        self.oracle = oracle
        self.n_hints = int(n_hints)
        self.per_query_budget = float(per_query_budget)
        self.hint_factors = (
            np.asarray(hint_factors, dtype=float) if hint_factors is not None else None
        )
        self._rng = np.random.default_rng(seed)

    # -- surrogate -------------------------------------------------------------
    def _hint_similarity(self, a: int, b: int) -> float:
        if self.hint_factors is None:
            return 1.0
        va, vb = self.hint_factors[a], self.hint_factors[b]
        denom = np.linalg.norm(va) * np.linalg.norm(vb) + 1e-12
        return float(va @ vb / denom)

    def _surrogate(self, observed: Dict[int, float], hint: int) -> Tuple[float, float]:
        """Mean / uncertainty estimate for an untried hint."""
        if not observed:
            return 1.0, 1.0
        weights = np.array(
            [max(self._hint_similarity(hint, tried), 1e-3) for tried in observed]
        )
        values = np.array(list(observed.values()))
        mean = float((weights * values).sum() / weights.sum())
        spread = float(values.std() + 1e-6)
        uncertainty = spread / np.sqrt(weights.sum())
        return mean, uncertainty

    def _acquire(self, observed: Dict[int, float]) -> Optional[int]:
        """Pick the next hint by (negative) lower confidence bound."""
        untried = [h for h in range(self.n_hints) if h not in observed]
        if not untried:
            return None
        scores = []
        for hint in untried:
            mean, uncertainty = self._surrogate(observed, hint)
            scores.append(mean - EXPLORATION_WEIGHT * uncertainty)
        return int(untried[int(np.argmin(scores))])

    # -- main loop ---------------------------------------------------------------
    def optimize_query(self, matrix: WorkloadMatrix, query: int) -> Tuple[float, int]:
        """Optimise one query within its budget; returns (time spent, evaluations)."""
        remaining = self.per_query_budget
        evaluations = 0
        observed: Dict[int, float] = {}
        if matrix.is_observed(query, 0):
            observed[0] = matrix.value(query, 0)
        while remaining > 0:
            hint = self._acquire(observed)
            if hint is None:
                break
            result = self.oracle.execute(query, hint, timeout=remaining)
            evaluations += 1
            if result.timed_out:
                matrix.observe_censored(query, hint, result.charged_time)
                remaining -= result.charged_time
                break
            matrix.observe(query, hint, result.latency)
            observed[hint] = result.latency
            remaining -= result.charged_time
        return self.per_query_budget - max(remaining, 0.0), evaluations
