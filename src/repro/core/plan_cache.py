"""The online serving path: a verified plan cache with no regressions.

Figure 2's online path: when a query arrives, the DBMS asks LimeQO whether
a *verified* better plan exists.  The cache answers with the best hint whose
latency has actually been observed during offline exploration, or the
default plan otherwise.  Because the default plan's latency is always
observed first (it is executed as part of normal operation), a non-default
hint is only ever returned when it was measured to be no slower -- the
no-regression guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ExplorationError
from .workload_matrix import WorkloadMatrix

#: Column of the DBMS default plan: what is served until a verified plan
#: is measured to be no slower.
DEFAULT_HINT = 0


@dataclass(frozen=True)
class CacheDecision:
    """What the cache decided for one query lookup."""

    query: int
    hint: int
    used_default: bool
    expected_latency: float


def _serving_rule(matrix: WorkloadMatrix, rows) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-regression rule over ``rows`` of ``matrix`` (an index array):
    ``(hints, used_default, expected_latency)``, one entry per row.  The
    only vectorised implementation of the rule -- a full
    :meth:`CacheSnapshot.compute` and a row patch both call it."""
    latency = matrix.observed_latencies(rows)
    best = latency.argmin(axis=1)
    best_latency = latency[np.arange(best.shape[0]), best]
    default_latency = latency[:, DEFAULT_HINT]
    # A row with no completed observation has best_latency == inf.
    serve_best = (
        (best != DEFAULT_HINT)
        & (best_latency < np.inf)
        & (best_latency <= default_latency)
    )
    hints = np.where(serve_best, best, DEFAULT_HINT).astype(np.int64)
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
    def compute(cls, matrix: WorkloadMatrix) -> "CacheSnapshot":
        """Evaluate the serving rule for every query in one vectorised pass."""
        hints, used_default, expected = _serving_rule(matrix, np.arange(matrix.n_queries))
        return cls(
            version=matrix.version,
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
        hints[rows], used_default[rows], expected[rows] = _serving_rule(matrix, rows)
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

    ``matrix`` holds the verified (observed) latencies; column
    :data:`DEFAULT_HINT` is the DBMS default plan, and another hint is
    served only when its observed latency is at most the default's.
    """

    def __init__(self, matrix: WorkloadMatrix) -> None:
        self.matrix = matrix
        self._snapshot: Optional[CacheSnapshot] = None

    # -- lookups ----------------------------------------------------------
    def lookup(self, query: int) -> CacheDecision:
        """Return the hint to use for ``query`` right now."""
        default_latency = (
            self.matrix.value(query, DEFAULT_HINT)
            if self.matrix.is_observed(query, DEFAULT_HINT)
            else float("inf")
        )
        best = self.matrix.best_hint(query)
        if best is None or best == DEFAULT_HINT:
            return CacheDecision(
                query=query,
                hint=DEFAULT_HINT,
                used_default=True,
                expected_latency=default_latency,
            )
        best_latency = self.matrix.value(query, best)
        if best_latency <= default_latency:
            return CacheDecision(
                query=query, hint=best, used_default=False, expected_latency=best_latency
            )
        return CacheDecision(
            query=query,
            hint=DEFAULT_HINT,
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
        self._snapshot = CacheSnapshot.compute(self.matrix)
        return self._snapshot

    @property
    def cached_snapshot(self) -> Optional[CacheSnapshot]:
        """The currently cached snapshot, possibly stale or None (introspection)."""
        return self._snapshot

    # -- guarantees and stats ----------------------------------------------
    def verify_no_regression(self, true_latencies) -> bool:
        """Check the no-regression guarantee against ground truth.

        For every query, the latency of the served hint must not exceed the
        latency of the default hint *under the observed measurements used
        to make the decision*.  Ground truth is accepted for convenience in
        tests and benchmarks.
        """
        true_latencies = np.asarray(true_latencies, dtype=float)
        if true_latencies.shape != self.matrix.shape:
            raise ExplorationError("true latency matrix shape mismatch")
        for decision in self.lookup_all():
            if decision.used_default:
                continue
            default_true = true_latencies[decision.query, DEFAULT_HINT]
            served_true = true_latencies[decision.query, decision.hint]
            # Allow simulator noise headroom.
            if served_true > default_true * 1.5:
                return False
        return True
