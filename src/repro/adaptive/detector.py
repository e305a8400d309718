"""Per-key drift detection over serving residual windows.

A :class:`DriftDetector` owns one :class:`~repro.adaptive.residuals.ResidualWindow`
per *key* -- the cluster controller keys by shard id; a detector used on
its own reads the default key -- and turns window
statistics into a thresholded :class:`DriftStatus`:

* ``drift_triggered``: the fraction of recent measurements deviating from
  their decision-time expectation beyond ``config.tolerance`` crossed
  ``config.drift_threshold`` (data drift, Figures 10-11);
* ``unseen_triggered``: the fraction of recent arrivals served with no
  observation at all crossed ``config.unseen_threshold``, or the tracked
  row count grew by more than that fraction (workload shift / new
  templates, Figure 9).

Both thresholds require ``config.min_samples`` of evidence, so a detector
can never fire on noise from a handful of arrivals.  The detector is
deliberately passive: it computes, it never acts.  Acting -- invalidation,
budgeted re-exploration, refresh escalation -- is the controller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import AdaptiveConfig
from .residuals import ResidualWindow

DEFAULT_KEY = "service"


@dataclass(frozen=True)
class DriftStatus:
    """Thresholded snapshot of one key's window."""

    key: str
    samples: int
    seen_samples: int
    drift_score: float
    unseen_rate: float
    mean_residual: float
    max_residual: float
    new_row_fraction: float
    drift_triggered: bool
    unseen_triggered: bool

    @property
    def triggered(self) -> bool:
        """True when any signal crossed its threshold."""
        return self.drift_triggered or self.unseen_triggered


class DriftDetector:
    """Keyed residual windows plus new-row-rate monitoring."""

    def __init__(self, config: Optional[AdaptiveConfig] = None) -> None:
        self.config = config or AdaptiveConfig()
        self._windows: Dict[str, ResidualWindow] = {}
        self._row_baseline: Dict[str, int] = {}
        self._row_current: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------------
    def window(self, key: str = DEFAULT_KEY) -> ResidualWindow:
        """The window for ``key`` (created lazily)."""
        if key not in self._windows:
            self._windows[key] = ResidualWindow(self.config.window)
        return self._windows[key]

    def record(self, queries, expected, measured, key: str = DEFAULT_KEY) -> None:
        """Fold one serving-feedback batch into ``key``'s window."""
        self.window(key).record(queries, expected, measured)

    def note_row_count(self, n_rows: int, key: str = DEFAULT_KEY) -> None:
        """Track matrix growth: the first note per window epoch is the baseline."""
        self._row_current[key] = int(n_rows)
        self._row_baseline.setdefault(key, int(n_rows))

    # -- status ---------------------------------------------------------------------
    def new_row_fraction(self, key: str = DEFAULT_KEY) -> float:
        """Row-count growth since the current window epoch's baseline."""
        baseline = self._row_baseline.get(key)
        if not baseline:
            return 0.0
        return max(0, self._row_current.get(key, baseline) - baseline) / baseline

    def status(self, key: str = DEFAULT_KEY) -> DriftStatus:
        """Thresholded signals for one key.

        The drift branch gates on ``min_samples`` of *residual-carrying*
        evidence: the score is a fraction of measured samples only, so a
        window dominated by unseen serves (e.g. a template stream) must
        not let one noisy measurement trip an invalidation.  The unseen
        branch gates on total window size.
        """
        stats = self.window(key).stats(self.config.tolerance)
        new_rows = self.new_row_fraction(key)
        enough_measured = stats.seen_samples >= self.config.min_samples
        enough_total = stats.samples >= self.config.min_samples
        return DriftStatus(
            key=key,
            samples=stats.samples,
            seen_samples=stats.seen_samples,
            drift_score=stats.drift_score,
            unseen_rate=stats.unseen_rate,
            mean_residual=stats.mean_residual,
            max_residual=stats.max_residual,
            new_row_fraction=new_rows,
            drift_triggered=enough_measured
            and stats.drift_score > self.config.drift_threshold,
            unseen_triggered=enough_total
            and (
                stats.unseen_rate > self.config.unseen_threshold
                or new_rows > self.config.unseen_threshold
            ),
        )

    def statuses(self) -> List[DriftStatus]:
        """Statuses for every key with a window, in key order."""
        return [self.status(key) for key in sorted(self._windows)]

    def drifted_rows(self, key: str = DEFAULT_KEY, min_hits: int = 1) -> np.ndarray:
        """Rows with over-tolerance residual evidence in ``key``'s window."""
        return self.window(key).drifted_rows(self.config.tolerance, min_hits)

    def unseen_rows(self, key: str = DEFAULT_KEY, min_hits: int = 1) -> np.ndarray:
        """Rows served without any observation in ``key``'s window."""
        return self.window(key).unseen_rows(min_hits)

    def reset(self, key: str = DEFAULT_KEY) -> None:
        """Start a fresh window epoch (after a response changed the basis)."""
        self.window(key).clear()
        self._row_baseline.pop(key, None)
        if key in self._row_current:
            self._row_baseline[key] = self._row_current[key]

    def reset_all(self) -> None:
        """Fresh epochs for every key (e.g. after a topology change)."""
        for key in list(self._windows):
            self.reset(key)
