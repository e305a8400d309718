"""Offline exploration policies (paper Sections 4.2 and 5, "Techniques").

Each policy answers one question per exploration step: *which unexplored
(query, hint) cells should be executed next?*  The six methods compared in
Figure 5 are implemented here:

* :class:`RandomPolicy` -- uniform over unexplored cells,
* :class:`GreedyPolicy` -- longest-running queries first, random hint,
* :class:`QOAdvisorPolicy` -- lowest optimizer-estimated cost first,
* :class:`BaoCachePolicy` -- cells with the lowest model-predicted latency,
* :class:`LimeQOPolicy` -- Algorithm 1 with a pluggable predictor (ALS by
  default: the linear method),
* :class:`LimeQOPlusPolicy` -- Algorithm 1 with the transductive TCNN.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ALSConfig
from ..errors import ExplorationError
from .predictors import ALSPredictor, Predictor
from .scoring import best_unexplored
from .workload_matrix import WorkloadMatrix

Candidate = Tuple[int, int]


class ExplorationPolicy:
    """Base class: subclasses override :meth:`select`."""

    name = "base"
    uses_predictor = False

    def __init__(self) -> None:
        self._last_prediction: Optional[np.ndarray] = None

    # -- selection ---------------------------------------------------------
    def select(
        self, matrix: WorkloadMatrix, batch_size: int, rng: np.random.Generator
    ) -> List[Candidate]:
        """Return up to ``batch_size`` unexplored (query, hint) cells."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------
    @property
    def last_prediction(self) -> Optional[np.ndarray]:
        """The predictor's last completed matrix (None for model-free policies),
        valid until the next ``select`` (:meth:`Predictor.predict`)."""
        return self._last_prediction

    @property
    def overhead_seconds(self) -> float:
        """Cumulative model overhead (0 for model-free policies)."""
        return 0.0

    @staticmethod
    def _random_fill(
        matrix: WorkloadMatrix,
        already: Sequence[Candidate],
        needed: int,
        rng: np.random.Generator,
    ) -> List[Candidate]:
        """Uniformly sample additional unexplored cells, avoiding duplicates.

        Works on flat indices into the unknown mask; the pool has the same
        row-major order (minus ``already``) as the historical list-of-tuples
        implementation, so the generator draws -- and therefore the sampled
        cells -- are unchanged.
        """
        if needed <= 0:
            return []
        unknown = matrix.unknown_mask()
        if already:
            unknown = unknown.copy()
            rows = [c[0] for c in already]
            cols = [c[1] for c in already]
            unknown[rows, cols] = False
        pool = np.flatnonzero(unknown)
        if pool.size == 0:
            return []
        take = min(needed, pool.size)
        picks = pool[np.atleast_1d(rng.choice(pool.size, size=take, replace=False))]
        n_hints = matrix.n_hints
        return [(int(p // n_hints), int(p % n_hints)) for p in picks]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class RandomPolicy(ExplorationPolicy):
    """Explore uniformly random unexplored cells."""

    name = "random"

    def select(self, matrix, batch_size, rng):
        return self._random_fill(matrix, [], batch_size, rng)


class GreedyPolicy(ExplorationPolicy):
    """Explore the longest-running queries first (Section 4.2, "Greedy").

    Queries are ranked by their current best observed latency, descending;
    for each selected query a random unexplored hint is chosen.
    """

    name = "greedy"

    def select(self, matrix, batch_size, rng):
        minima = matrix.row_minima()
        order = np.argsort(-np.where(np.isinf(minima), np.finfo(float).max, minima))
        picks: List[Candidate] = []
        for query in order:
            if len(picks) >= batch_size:
                break
            unknown = matrix.unknown_in_row(int(query))
            if not unknown:
                continue
            hint = int(rng.choice(unknown))
            picks.append((int(query), hint))
        picks.extend(self._random_fill(matrix, picks, batch_size - len(picks), rng))
        return picks


class QOAdvisorPolicy(ExplorationPolicy):
    """Explore the unexplored cell with the lowest optimizer-estimated cost.

    This is the paper's PostgreSQL adaptation of QO-Advisor: the contextual
    bandit's best possible action is the plan the cost model likes most, so
    we rank unexplored cells by the optimizer's estimated plan cost.
    """

    name = "qo-advisor"

    def __init__(self, cost_matrix: np.ndarray) -> None:
        super().__init__()
        self.cost_matrix = np.asarray(cost_matrix, dtype=float)
        if self.cost_matrix.ndim != 2:
            raise ExplorationError("QOAdvisorPolicy needs a 2-D cost matrix")

    def select(self, matrix, batch_size, rng):
        if self.cost_matrix.shape[1] != matrix.n_hints:
            raise ExplorationError(
                "cost matrix column count does not match the workload matrix"
            )
        unknown = matrix.unknown_mask()
        if self.cost_matrix.shape[0] < matrix.n_queries:
            unknown = unknown.copy()
            unknown[self.cost_matrix.shape[0]:] = False
        flat = np.flatnonzero(unknown)
        if flat.size == 0:
            return []
        rows, cols = np.divmod(flat, matrix.n_hints)
        order = np.argsort(self.cost_matrix[rows, cols])
        top = flat[order[:batch_size]]
        picks = [(int(p // matrix.n_hints), int(p % matrix.n_hints)) for p in top]
        picks.extend(self._random_fill(matrix, picks, batch_size - len(picks), rng))
        return picks


class BaoCachePolicy(ExplorationPolicy):
    """Explore the cells the value model predicts to be fastest.

    The offline adaptation of Bao described in Section 5: the TCNN value
    model scores every unexplored plan and the most promising (lowest
    predicted latency) plans are executed and cached.  Unlike LimeQO it does
    not normalise by expected improvement, so it happily spends time on
    queries that are already fast.
    """

    name = "bao-cache"
    uses_predictor = True

    def __init__(self, predictor: Predictor) -> None:
        super().__init__()
        self.predictor = predictor

    @property
    def overhead_seconds(self) -> float:
        return self.predictor.overhead_seconds

    def select(self, matrix, batch_size, rng):
        predicted = self.predictor.predict(matrix)
        self._last_prediction = predicted
        flat = np.flatnonzero(matrix.unknown_mask())
        if flat.size == 0:
            return []
        order = np.argsort(predicted.ravel()[flat])
        top = flat[order[:batch_size]]
        return [(int(p // matrix.n_hints), int(p % matrix.n_hints)) for p in top]


class LimeQOPolicy(ExplorationPolicy):
    """Algorithm 1: model-guided exploration by expected improvement ratio.

    Per step: complete the matrix with the predictor, compute each query's
    expected improvement ratio (Equation 6) at its predicted-best unexplored
    hint, execute the top ``m``; when fewer than ``m`` queries have positive
    predicted improvement, pad with random unexplored cells (lines 8-9).
    """

    name = "limeqo"
    uses_predictor = True

    def __init__(
        self,
        predictor: Optional[Predictor] = None,
        als_config: Optional[ALSConfig] = None,
    ) -> None:
        super().__init__()
        self.predictor = predictor or ALSPredictor(als_config)

    @property
    def overhead_seconds(self) -> float:
        return self.predictor.overhead_seconds

    def select(self, matrix, batch_size, rng):
        predicted = self.predictor.predict(matrix)
        self._last_prediction = predicted

        # Equation 6 at each row's predicted-best unexplored hint, one pass;
        # rows with nothing left score -inf, so ``> 0`` keeps Algorithm 1's
        # candidates.  ``argsort`` is numpy's default (not stable past 16
        # candidates, and every row with no observation ties at +inf): a
        # different sort, or a stable one, changes which tied rows are picked.
        best_unknown, ratios = best_unexplored(matrix, predicted)
        candidate_rows = np.flatnonzero(ratios > 0)
        order = np.argsort(-ratios[candidate_rows])
        top_rows = candidate_rows[order[:batch_size]]
        picks = list(zip(top_rows.tolist(), best_unknown[top_rows].tolist()))
        if len(picks) < batch_size:
            picks.extend(
                self._random_fill(matrix, picks, batch_size - len(picks), rng)
            )
        return picks


class LimeQOPlusPolicy(LimeQOPolicy):
    """Algorithm 1 driven by the transductive TCNN (the neural method).

    Identical selection logic to :class:`LimeQOPolicy`; only the predictive
    model changes, which is exactly how the paper frames LimeQO+.
    """

    name = "limeqo+"

    def __init__(self, predictor: Predictor) -> None:
        super().__init__(predictor=predictor)
