"""Predictive models plugged into Algorithm 1.

A predictor takes the current partially observed workload matrix and
returns a fully filled estimate ``Ŵ``.  Three families:

* :class:`ALSPredictor` -- the linear method (LimeQO),
* :class:`TCNNPredictor` -- a plain tree convolutional network over plan
  features (the "TCNN" ablation of Figure 12),
* :class:`TransductiveTCNNPredictor` -- the TCNN augmented with query/hint
  embedding layers (LimeQO+).

Each predictor tracks the cumulative wall-clock overhead it has consumed,
which is what Figures 7 and 13 report.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Optional

import numpy as np

from ..config import ALSConfig, TCNNConfig
from ..errors import ExplorationError
from .matrix_completion import WarmStartedALS
from .workload_matrix import WorkloadMatrix


class Predictor(ABC):
    """Interface for models that complete the workload matrix."""

    name = "base"

    def __init__(self) -> None:
        self._overhead_seconds = 0.0

    @property
    def overhead_seconds(self) -> float:
        """Cumulative model training + inference time consumed so far."""
        return self._overhead_seconds

    def predict(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Return a completed estimate ``Ŵ`` of the workload matrix.

        The array may be the predictor's working buffer (:class:`ALSPredictor`'s
        is): valid until its next ``predict``, which may overwrite it.  A
        caller that writes into it puts the values back before that, as
        :func:`~repro.core.scoring.best_unexplored` does, or copies it.
        """
        start = time.perf_counter()
        estimate = self._predict(matrix)
        self._overhead_seconds += time.perf_counter() - start
        estimate = np.asarray(estimate, dtype=float)
        if estimate.shape != matrix.shape:
            raise ExplorationError(
                f"predictor {self.name!r} returned shape {estimate.shape}, "
                f"expected {matrix.shape}"
            )
        return estimate

    @abstractmethod
    def _predict(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Subclass hook: produce the completed matrix."""


# One warm block-coordinate pass per arriving batch of ~10 cells (measured
# against five and two: docs/performance.md, "One sweep per refresh").
WARM_REFRESH_SWEEPS = 1
# Sweeps of the periodic cold re-anchor from the baseline factors, capped at
# ``config.iterations`` (measured against 5 and 8 and a warm re-anchor:
# docs/performance.md, "Known cells are kept state").
RE_ANCHOR_SWEEPS = 6


class ALSPredictor(Predictor):
    """Censored ALS matrix completion (the LimeQO linear method).

    By default the predictor is *incremental*: it keeps the ``(Q, H)``
    factor pair of its previous solve and, when asked to predict the same
    (possibly grown) matrix again, warm-starts the solver from those factors
    with one fill-in sweep (:data:`WARM_REFRESH_SWEEPS`) instead of a full
    ``config.iterations`` cold solve.  After ``full_solve_every`` warm
    refreshes in a row the next is a cold re-anchor of
    :data:`RE_ANCHOR_SWEEPS`, to bound drift.  Predicting an
    unchanged matrix returns the cached completion without re-solving, and
    a *different* matrix object always starts cold (the cached factors
    describe the previous matrix).

    A warm refresh of a matrix that kept its shape writes its estimate into
    the array the previous ``predict`` returned (:class:`WarmStartedALS`):
    that array is valid until the next ``predict``.  Write into it only to
    put the values back before then, or copy it.

    Pass ``warm_start=False`` to recover the historical cold-every-step
    behaviour (the baseline the ``repro.perf`` equivalence benchmark
    measures against).
    """

    name = "als"

    def __init__(
        self,
        config: Optional[ALSConfig] = None,
        warm_start: bool = True,
        full_solve_every: int = 10,
    ) -> None:
        super().__init__()
        if full_solve_every < 1:
            raise ExplorationError(
                f"full_solve_every must be >= 1, got {full_solve_every}"
            )
        self.config = config or ALSConfig()
        self._als = WarmStartedALS(self.config)
        self.warm_start = bool(warm_start)
        self.full_solve_every = int(full_solve_every)

    @property
    def cold_solves(self) -> int:
        """Number of full from-scratch solves performed."""
        return self._als.cold_solves

    @property
    def warm_solves(self) -> int:
        """Number of warm-started incremental refreshes performed."""
        return self._als.warm_solves

    @property
    def _result(self):
        """The last solve (None before the first)."""
        return self._als.result

    @property
    def factors(self):
        """The ``(Q, H)`` pair of the last solve (None before the first)."""
        return None if self._result is None else self._result.factors

    def reset(self) -> None:
        """Drop all carried factors; the next prediction solves cold."""
        self._als.reset()

    # -- prediction ---------------------------------------------------------
    def _predict(self, matrix: WorkloadMatrix) -> np.ndarray:
        anchor = None if self.warm_start else self.config.iterations
        if self.warm_start and self._als.warm_streak >= self.full_solve_every:
            anchor = min(RE_ANCHOR_SWEEPS, self.config.iterations)
        return self._als.solve(matrix, WARM_REFRESH_SWEEPS, anchor).completed


class TCNNPredictor(Predictor):
    """Tree convolutional network over plan features (no embeddings).

    Requires a plan-feature store (see :mod:`repro.plans.featurize`) mapping
    each (query, hint) cell to a featurised plan tree.  Training follows the
    paper's protocol: Adam, batch size 32, up to 100 epochs with a 1%/10-
    epoch convergence criterion, warm-started from the previous step's
    weights, and the censored loss for timed-out observations.
    """

    name = "tcnn"
    _use_embeddings = False

    def __init__(self, feature_store, config: Optional[TCNNConfig] = None) -> None:
        super().__init__()
        self.feature_store = feature_store
        base = config or TCNNConfig()
        if base.use_embeddings != self._use_embeddings:
            base = replace(base, use_embeddings=self._use_embeddings)
        self.config = base
        self._trainer = None

    def _get_trainer(self, matrix: WorkloadMatrix):
        # Imported lazily so the linear method has zero neural dependencies.
        from ..nn.trainer import TCNNTrainer

        if self._trainer is None:
            self._trainer = TCNNTrainer(
                feature_store=self.feature_store,
                n_queries=matrix.n_queries,
                n_hints=matrix.n_hints,
                config=self.config,
            )
        elif self._trainer.n_queries < matrix.n_queries:
            self._trainer.grow_queries(matrix.n_queries)
        return self._trainer

    def _predict(self, matrix: WorkloadMatrix) -> np.ndarray:
        trainer = self._get_trainer(matrix)
        trainer.fit(matrix)
        predictions = trainer.predict_full(matrix)
        # Completed cells keep their observed values, mirroring Section 4.3.2.
        known = matrix.solver_cells()
        predictions.reshape(-1)[known.obs_idx] = known.obs_vals
        return predictions


class TransductiveTCNNPredictor(TCNNPredictor):
    """The transductive TCNN: tree convolution + query/hint embeddings."""

    name = "tcnn+embeddings"
    _use_embeddings = True
