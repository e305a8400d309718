"""Drift-aware adaptive operation: detect serving-time drift, respond in budget.

The paper's robustness experiments (ETL queries, workload shift, data drift
-- Sections 5.1/5.3/5.4, Figures 8-11) show hint quality decaying as
workloads and data change.  This package closes the loop that the offline
explorer + frozen serving snapshot leave open:

* :mod:`repro.adaptive.residuals` -- windowed observed-vs-expected residual
  statistics (the raw drift signal) as property-testable pure functions
  plus a vectorised ring-buffer window,
* :mod:`repro.adaptive.detector` -- per-key (shard) thresholded drift +
  new-template detection,
* :mod:`repro.adaptive.reexplore` -- budgeted Algorithm-1 re-exploration
  against the live serving matrix, plus the :class:`RowOracle` adapter for
  live execution backends,
* :mod:`repro.adaptive.cluster` -- the loop and the one door drift feedback
  enters through: a shared detector keyed by shard, per-shard responses,
* :mod:`repro.adaptive.controller` -- one shard's response pipeline:
  invalidate stale rows, re-anchor the default plan, explore in budget --
  all off the serve path, no-regression guarantee intact.
"""

from .controller import AdaptiveStats
from .cluster import ClusterAdaptationController
from .detector import DEFAULT_KEY, DriftDetector, DriftStatus
from .reexplore import OnlineReexplorer, RowOracle
from .residuals import (
    ResidualWindow,
    WindowStats,
    drift_score,
    relative_residuals,
    unseen_rate,
)

__all__ = [
    "AdaptiveStats",
    "ClusterAdaptationController",
    "DEFAULT_KEY",
    "DriftDetector",
    "DriftStatus",
    "OnlineReexplorer",
    "RowOracle",
    "ResidualWindow",
    "WindowStats",
    "drift_score",
    "relative_residuals",
    "unseen_rate",
]
