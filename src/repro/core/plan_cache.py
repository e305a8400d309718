"""The online serving path: a verified plan cache with no regressions.

Figure 2's online path: when a query arrives, the DBMS asks LimeQO whether
a *verified* better plan exists.  The cache answers with the best hint whose
latency has actually been observed during offline exploration, or the
default plan otherwise.  Because the default plan's latency is always
observed first (it is executed as part of normal operation), a non-default
hint is only ever returned when it was measured to be at least
``regression_margin`` times faster -- the no-regression guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ExplorationError
from .workload_matrix import WorkloadMatrix


@dataclass(frozen=True)
class CacheDecision:
    """What the cache decided for one query lookup."""

    query: int
    hint: int
    used_default: bool
    expected_latency: float


def _serving_rule(
    matrix: WorkloadMatrix, rows, default_hint: int, regression_margin: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-regression rule over ``rows`` of ``matrix`` (an index array):
    ``(hints, used_default, expected_latency)``, one entry per row.  The
    only vectorised implementation of the rule -- a full
    :meth:`CacheSnapshot.compute` and a row patch both call it."""
    latency = matrix.observed_latencies(rows)
    best = latency.argmin(axis=1)
    best_latency = latency[np.arange(best.shape[0]), best]
    default_latency = latency[:, default_hint]
    # A row with no completed observation has best_latency == inf.
    serve_best = (
        (best != default_hint)
        & (best_latency < np.inf)
        & (best_latency <= default_latency * regression_margin)
    )
    hints = np.where(serve_best, best, default_hint).astype(np.int64)
    expected = np.where(serve_best, best_latency, default_latency)
    return hints, ~serve_best, expected


@dataclass(frozen=True)
class CacheSnapshot:
    """Precomputed decision arrays for every query at one matrix version.

    The scalar :meth:`PlanCache.lookup` walks one matrix row per call; a
    snapshot evaluates the same no-regression rule for *all* rows with a
    handful of vectorised operations.  It is an immutable value: when the
    matrix moves on (detected via :attr:`WorkloadMatrix.version`) a *new*
    snapshot is derived -- by :meth:`patched` when only row contents
    changed, by :meth:`compute` when the row set did.  This is the kernel
    the batched serving layer (:mod:`repro.serving`) is built on.
    """

    version: int
    default_hint: int
    regression_margin: float
    hints: np.ndarray
    used_default: np.ndarray
    expected_latency: np.ndarray
    #: Rows re-evaluated to derive this snapshot from its predecessor;
    #: ``None`` for a full :meth:`compute`.
    patched_rows: Optional[int] = None

    @property
    def n_queries(self) -> int:
        """Number of queries covered by the snapshot."""
        return self.hints.shape[0]

    @classmethod
    def compute(
        cls,
        matrix: WorkloadMatrix,
        default_hint: int,
        regression_margin: float,
    ) -> "CacheSnapshot":
        """Evaluate the serving rule for every query in one vectorised pass."""
        hints, used_default, expected = _serving_rule(
            matrix, np.arange(matrix.n_queries), default_hint, regression_margin
        )
        return cls(
            version=matrix.version,
            default_hint=int(default_hint),
            regression_margin=float(regression_margin),
            hints=hints,
            used_default=used_default,
            expected_latency=expected,
        )

    def patched(self, matrix: WorkloadMatrix, rows: np.ndarray) -> "CacheSnapshot":
        """A new snapshot at ``matrix.version`` with only ``rows`` re-decided.

        The rule is per row, so rows the matrix did not touch keep their
        decisions: copy the three arrays, scatter the fresh rows.  ``self``
        is left untouched for whoever still holds it.
        """
        hints, used_default, expected = (
            old.copy() for old in (self.hints, self.used_default, self.expected_latency)
        )
        hints[rows], used_default[rows], expected[rows] = _serving_rule(
            matrix, rows, self.default_hint, self.regression_margin
        )
        return replace(
            self,
            version=matrix.version,
            hints=hints,
            used_default=used_default,
            expected_latency=expected,
            patched_rows=int(rows.size),
        )


class PlanCache:
    """Maps queries to their best verified hint, defaulting safely.

    Parameters
    ----------
    matrix:
        The workload matrix holding verified (observed) latencies.
    default_hint:
        Column index of the DBMS default plan (0 by convention).
    regression_margin:
        A non-default hint is served only when its observed latency is at
        most ``regression_margin`` times the default's observed latency.
        1.0 means "at least as fast as the default".
    """

    def __init__(
        self,
        matrix: WorkloadMatrix,
        default_hint: int = 0,
        regression_margin: float = 1.0,
    ) -> None:
        if not 0 <= default_hint < matrix.n_hints:
            raise ExplorationError(
                f"default hint {default_hint} out of range for {matrix.n_hints} hints"
            )
        if regression_margin <= 0:
            raise ExplorationError("regression_margin must be > 0")
        self.matrix = matrix
        self.default_hint = int(default_hint)
        self.regression_margin = float(regression_margin)
        self._snapshot: Optional[CacheSnapshot] = None

    # -- lookups ----------------------------------------------------------
    def lookup(self, query: int) -> CacheDecision:
        """Return the hint to use for ``query`` right now."""
        default_latency = (
            self.matrix.value(query, self.default_hint)
            if self.matrix.is_observed(query, self.default_hint)
            else float("inf")
        )
        best = self.matrix.best_hint(query)
        if best is None or best == self.default_hint:
            return CacheDecision(
                query=query,
                hint=self.default_hint,
                used_default=True,
                expected_latency=default_latency,
            )
        best_latency = self.matrix.value(query, best)
        if best_latency <= default_latency * self.regression_margin:
            return CacheDecision(
                query=query, hint=best, used_default=False, expected_latency=best_latency
            )
        return CacheDecision(
            query=query,
            hint=self.default_hint,
            used_default=True,
            expected_latency=default_latency,
        )

    def lookup_all(self) -> List[CacheDecision]:
        """Decisions for every query in the workload."""
        return [self.lookup(q) for q in range(self.matrix.n_queries)]

    # -- batched lookups ----------------------------------------------------
    def snapshot(self, force: bool = False) -> CacheSnapshot:
        """Decision arrays at the current matrix version.

        Cached while the matrix stands still; after writes, only the rows
        they touched are re-decided (:meth:`CacheSnapshot.patched`).  A
        full :meth:`CacheSnapshot.compute` runs for the first build, for
        ``force=True`` and after rows were added, imported or removed.
        """
        snap = self._snapshot
        if not force and snap is not None:
            if snap.version == self.matrix.version:
                return snap
            rows = self.matrix.rows_changed_since(snap.version)
            if rows is not None:
                self._snapshot = snap.patched(self.matrix, rows)
                return self._snapshot
        self._snapshot = CacheSnapshot.compute(
            self.matrix, self.default_hint, self.regression_margin
        )
        return self._snapshot

    @property
    def cached_snapshot(self) -> Optional[CacheSnapshot]:
        """The currently cached snapshot, possibly stale or None (introspection)."""
        return self._snapshot

    # -- guarantees and stats ----------------------------------------------
    def verify_no_regression(self, true_latencies) -> bool:
        """Check the no-regression guarantee against ground truth.

        For every query, the latency of the served hint must not exceed the
        latency of the default hint (up to the regression margin) *under the
        observed measurements used to make the decision*.  Ground truth is
        accepted for convenience in tests and benchmarks.
        """
        true_latencies = np.asarray(true_latencies, dtype=float)
        if true_latencies.shape != self.matrix.shape:
            raise ExplorationError("true latency matrix shape mismatch")
        for decision in self.lookup_all():
            if decision.used_default:
                continue
            default_true = true_latencies[decision.query, self.default_hint]
            served_true = true_latencies[decision.query, decision.hint]
            # Allow the margin plus simulator noise headroom.
            if served_true > default_true * self.regression_margin * 1.5:
                return False
        return True
