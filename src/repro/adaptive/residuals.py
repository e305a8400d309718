"""Windowed residual statistics: the raw serving-time drift signal.

The paper's robustness experiments (Sections 5.1/5.3/5.4) show hint quality
decaying as data and workloads change.  At serving time that decay is
directly observable: the snapshot's *expected* latency for a served plan
(the latency observed during exploration) stops matching what execution
*measures*.  :class:`ResidualWindow` accumulates those (query, relative
residual) samples in a fixed-size ring and summarises them on demand; the
pure helpers (:func:`relative_residuals`, :func:`drift_score`,
:func:`unseen_rate`) are the statistics the detector thresholds, kept free
of state so they can be property-tested in isolation.

Two signals come out of one window:

* **drift score** -- the fraction of recent feedback samples whose measured
  latency deviates from the decision-time expectation by more than a
  relative tolerance (Figures 10/11: stale observations),
* **unseen rate** -- the fraction of recent arrivals served with *no*
  observation at all (infinite expected latency: new templates, freshly
  invalidated rows -- Figure 9's late-arriving queries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AdaptiveError

RESIDUAL_EPS = 1e-9


def relative_residuals(expected, measured) -> np.ndarray:
    """Per-sample relative residual ``|measured - expected| / expected``.

    Samples with an infinite expectation (served with no observation) get
    ``nan`` -- they carry no residual information and feed the unseen rate
    instead.  A zero expectation is floored at :data:`RESIDUAL_EPS` so the residual
    stays finite.
    """
    expected = np.asarray(expected, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if expected.shape != measured.shape:
        raise AdaptiveError(
            f"expected/measured shape mismatch: {expected.shape} vs {measured.shape}"
        )
    seen = np.isfinite(expected)
    out = np.full(expected.shape, np.nan)
    denominator = np.maximum(expected[seen], RESIDUAL_EPS)
    out[seen] = np.abs(measured[seen] - expected[seen]) / denominator
    return out


def drift_score(residuals, tolerance: float) -> float:
    """Fraction of residual-carrying samples exceeding ``tolerance``.

    ``nan`` entries (unseen serves) are excluded from both numerator and
    denominator.  Returns 0.0 for an empty window: zero drift never
    triggers.  The score is by construction in ``[0, 1]``, 0 exactly when
    every measurement sits within tolerance of its expectation, and 1
    exactly when every measurement deviates beyond it.
    """
    if tolerance <= 0:
        raise AdaptiveError(f"tolerance must be > 0, got {tolerance}")
    residuals = np.asarray(residuals, dtype=float)
    seen = np.isfinite(residuals)
    if not seen.any():
        return 0.0
    return float(np.mean(residuals[seen] > tolerance))


def unseen_rate(expected) -> float:
    """Fraction of samples served with no observation (infinite expectation)."""
    expected = np.asarray(expected, dtype=float)
    if expected.size == 0:
        return 0.0
    return float(np.mean(~np.isfinite(expected)))


@dataclass(frozen=True)
class WindowStats:
    """Point-in-time summary of one residual window.

    ``seen_samples`` counts only residual-carrying samples (finite
    expectation); the drift score is a fraction *of those*, so thresholds
    must gate on ``seen_samples``, not ``samples``, to stay noise-robust
    when most of the window is unseen serves.
    """

    samples: int
    seen_samples: int
    drift_score: float
    unseen_rate: float
    mean_residual: float
    max_residual: float


class ResidualWindow:
    """A fixed-capacity ring of serving-feedback samples.

    Recording is vectorised (at most two slice writes per batch) so the
    window can take every served batch's feedback without adding
    per-arrival Python work.  An unseen sample is one whose residual is
    ``nan``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise AdaptiveError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._queries = np.zeros(self.capacity, dtype=np.int64)
        self._residuals = np.full(self.capacity, np.nan)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def record(self, queries, expected, measured) -> None:
        """Fold one feedback batch into the ring."""
        self.record_residuals(queries, relative_residuals(expected, measured))

    def record_residuals(self, queries, residuals) -> None:
        """Fold one batch of :func:`relative_residuals` into the ring."""
        queries = np.asarray(queries, dtype=np.int64)
        residuals = np.asarray(residuals, dtype=float)
        if queries.shape != residuals.shape or queries.ndim != 1:
            raise AdaptiveError(
                "record needs matching 1-D query/expected/measured arrays"
            )
        n = queries.size
        if n == 0:
            return
        if n >= self.capacity:
            # Only the newest ``capacity`` samples can survive.
            queries = queries[-self.capacity:]
            residuals = residuals[-self.capacity:]
            n = self.capacity
        head, split = self._head, min(n, self.capacity - self._head)
        self._queries[head:head + split] = queries[:split]
        self._residuals[head:head + split] = residuals[:split]
        if split < n:  # wrapped around the end of the ring
            self._queries[:n - split] = queries[split:]
            self._residuals[:n - split] = residuals[split:]
        self._head = (head + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    # -- statistics -----------------------------------------------------------
    def _live(self) -> slice:
        return slice(0, self._size)

    def stats(self, tolerance: float) -> WindowStats:
        """Summarise the window's current contents."""
        residuals = self._residuals[self._live()]
        seen = np.isfinite(residuals)
        if seen.any():
            mean_residual = float(residuals[seen].mean())
            max_residual = float(residuals[seen].max())
        else:
            mean_residual = 0.0
            max_residual = 0.0
        return WindowStats(
            samples=self._size,
            seen_samples=int(seen.sum()),
            drift_score=drift_score(residuals, tolerance),
            unseen_rate=float((~seen).mean()) if self._size else 0.0,
            mean_residual=mean_residual,
            max_residual=max_residual,
        )

    @staticmethod
    def _rows_with_hits(rows: np.ndarray, min_hits: int) -> np.ndarray:
        if min_hits < 1:
            raise AdaptiveError(f"min_hits must be >= 1, got {min_hits}")
        unique, counts = np.unique(rows, return_counts=True)
        return unique[counts >= min_hits]

    def drifted_rows(self, tolerance: float, min_hits: int = 1) -> np.ndarray:
        """Sorted unique rows with >= ``min_hits`` over-tolerance residuals.

        ``min_hits > 1`` is the per-row persistence gate: one bad
        measurement is noise, the same row deviating repeatedly within one
        window is evidence -- that is what lets the controller sweep a
        drifted tail whose traffic share never crosses the global score
        threshold.
        """
        if tolerance <= 0:
            raise AdaptiveError(f"tolerance must be > 0, got {tolerance}")
        residuals = self._residuals[self._live()]
        mask = np.isfinite(residuals) & (residuals > tolerance)
        return self._rows_with_hits(self._queries[self._live()][mask], min_hits)

    def unseen_rows(self, min_hits: int = 1) -> np.ndarray:
        """Sorted unique rows served unseen >= ``min_hits`` times in-window."""
        live = self._live()
        return self._rows_with_hits(
            self._queries[live][~np.isfinite(self._residuals[live])], min_hits
        )

    def clear(self) -> None:
        """Drop every sample (after a response invalidates the residual basis)."""
        self._head = 0
        self._size = 0
        self._residuals[:] = np.nan
