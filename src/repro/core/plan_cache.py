"""The online serving path: a verified plan cache with no regressions.

Figure 2's online path: when a query arrives, the DBMS asks LimeQO whether
a *verified* better plan exists.  The cache answers with the best hint whose
latency has actually been observed during offline exploration, or the
default plan otherwise.  Because the default plan's latency is always
observed first (it is executed as part of normal operation), a non-default
hint is only ever returned when it was measured to be faster -- the
no-regression guarantee.  With the default in column 0 and ties kept by
the first column, the rule is one row ``argmin`` (:func:`_serving_rule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ExplorationError
from .workload_matrix import WorkloadMatrix

#: Column of the DBMS default plan: what is served until a verified plan
#: is measured to be faster.  Column 0, so that a row ``argmin`` (first
#: minimum on ties) is the whole serving rule.
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
    :meth:`CacheSnapshot.compute` and a row patch both call it.

    The rule is the default-first argmin over completed latencies (censored
    and unexecuted cells read ``inf``).  It is the best hint when that is
    not the default, finite and no slower than the default, else the
    default: the default is column 0 (:data:`DEFAULT_HINT`) and ``argmin``
    returns the first of tied minima, so a non-default answer is strictly
    below the default's latency, hence finite.  A tie answers the default;
    a row with no completed cell is all ``inf`` and answers column 0 at
    ``inf``.
    """
    latency = matrix.observed_latencies(rows)
    hints = latency.argmin(axis=1)
    return hints, hints == DEFAULT_HINT, latency[np.arange(hints.shape[0]), hints]


@dataclass(frozen=True)
class CacheSnapshot:
    """Precomputed decision arrays for every query at one matrix version.

    The scalar :meth:`PlanCache.lookup` walks one matrix row per call; a
    snapshot evaluates the same no-regression rule -- the default-first
    row ``argmin`` of :func:`_serving_rule` -- for *all* rows with one
    argmin and one gather.  It is an immutable value: when the
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
        return cls(matrix.version, *_serving_rule(matrix, np.arange(matrix.n_queries)))

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
        return CacheSnapshot(matrix.version, hints, used_default, expected, rows.size)


class PlanCache:
    """Maps queries to their best verified hint, defaulting safely.

    ``matrix`` holds the verified (observed) latencies; column
    :data:`DEFAULT_HINT` is the DBMS default plan, and another hint is
    served only when it is the row's first minimum over completed cells,
    so strictly faster than the default (a tie keeps the default).
    :meth:`lookup` is the scalar reference the snapshot is held to.
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

        For every query served a non-default hint, that hint's true latency
        must not exceed the default hint's.  The bound is exact: a served
        hint was measured strictly faster than the default, so observations
        that match the truth always pass, and one that ranks a hint faster
        than it truly runs fails.
        """
        true_latencies = np.asarray(true_latencies, dtype=float)
        if true_latencies.shape != self.matrix.shape:
            raise ExplorationError("true latency matrix shape mismatch")
        for decision in self.lookup_all():
            if decision.used_default:
                continue
            default_true = true_latencies[decision.query, DEFAULT_HINT]
            if true_latencies[decision.query, decision.hint] > default_true:
                return False
        return True
