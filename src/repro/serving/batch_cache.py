"""Vectorised, auto-refreshing view of the verified plan cache.

The scalar :class:`repro.core.plan_cache.PlanCache` answers one query per
call: it re-derives the row's best verified hint with a masked ``argmin``,
compares it with the default plan's, and allocates a decision object.  That is the
right interface for the paper's Figure 2 walkthrough, but a service fielding
thousands of arrivals per second cannot afford a Python-level row walk per
query.

:class:`BatchedPlanCache` keeps the precomputed decision arrays of a
:class:`~repro.core.plan_cache.CacheSnapshot` and answers whole batches with
fancy indexing.  Staleness is detected by comparing
:attr:`WorkloadMatrix.version` -- new observations (from the offline
explorer or the serving feedback path) are picked up on the next batch
without any explicit cache-flush protocol, and cost that batch a
re-decision of the rows they touched, not of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.plan_cache import CacheSnapshot, PlanCache
from ..core.workload_matrix import WorkloadMatrix, checked_ids
from ..errors import ServingError
from ..telemetry.registry import Counter
from ..telemetry.tracing import OFF


@dataclass(frozen=True)
class BatchDecisions:
    """Decisions for one served batch, as parallel arrays.

    Attributes
    ----------
    queries:
        ``(batch,)`` query indices as they arrived.
    hints:
        ``(batch,)`` hint index to use for each arrival.
    used_default:
        ``(batch,)`` bool; True where the default plan was served.
    expected_latency:
        ``(batch,)`` observed latency of the served plan (``inf`` when the
        default plan has never been measured).
    """

    queries: np.ndarray
    hints: np.ndarray
    used_default: np.ndarray
    expected_latency: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of decisions in the batch."""
        return int(self.queries.shape[0])

    @property
    def non_default_count(self) -> int:
        """How many arrivals got a verified non-default plan."""
        # Counted as batch minus defaults: summing the existing bool array
        # avoids materialising its inverse on the serve hot path.
        return int(self.used_default.shape[0] - self.used_default.sum())


class BatchedPlanCache:
    """Answers batches of arrivals from precomputed decision arrays.

    Semantically identical to per-query :meth:`PlanCache.lookup` -- the
    equality is asserted cell-for-cell in ``tests/test_serving.py`` -- but
    the no-regression rule is evaluated once per *changed row* (all rows
    on the first batch and after rows were added or removed) instead of
    once per arrival.
    """

    def __init__(self, matrix: WorkloadMatrix) -> None:
        self._scalar = PlanCache(matrix)
        self.matrix = matrix
        # Full rebuilds and patched rows are always counted: in the owning
        # service's bundle once bound, in cells of the cache's own until then.
        self._rebuilds = Counter()
        self._patched_rows = Counter()
        # The owning service binds its tracer; until then lookups are untimed.
        self._tracer = OFF
        # `decide_rows`' copy of the decision arrays as plain lists, and the
        # matrix version it stands at.
        self._row_lists: Optional[Tuple[list, list, list]] = None
        self._row_lists_version = -1

    def bind_telemetry(self, telemetry, metrics) -> None:
        """Count rebuilds in ``metrics``; time lookups when telemetry is on.

        ``metrics`` is the owning service's
        :class:`~repro.telemetry.ServingMetrics` (rebuild and patched-row
        counters).  A telemetry context's tracer times the ``cache.lookup``
        stage; None leaves the hot path off the clock.
        """
        self._rebuilds = metrics.cache_rebuilds
        self._patched_rows = metrics.cache_patched_rows
        self._tracer = OFF if telemetry is None else telemetry.tracer

    def refresh(self) -> CacheSnapshot:
        """Force-recompute the decision arrays at the current matrix version."""
        return self._scalar.snapshot(force=True)

    def current(self) -> CacheSnapshot:
        """The snapshot at the current matrix version, counted by what it
        cost: a full rebuild, or the rows a patch re-decided.  What `decide`
        starts with; callers off the serve path pay it ahead of a batch."""
        stale = self._scalar.cached_snapshot
        snap = self._scalar.snapshot()
        if snap is not stale:
            if snap.patched_rows is None:
                self._rebuilds.inc()
            else:
                self._patched_rows.inc(snap.patched_rows)
        return snap

    # -- batched decisions --------------------------------------------------
    def decide(self, queries) -> BatchDecisions:
        """Decisions for a batch of query indices (the hot path).

        One body whether or not telemetry is on: the rebuild and patch
        counters are always maintained (one identity compare), and the
        tracer times ``cache.lookup`` as its stage table says (only inside
        an open trace, the ingress path).
        """
        start = self._tracer.begin("cache.lookup")
        snap = self.current()
        queries = checked_ids("query", queries, snap.n_queries, ServingError)
        decisions = BatchDecisions(
            queries=queries,
            hints=snap.hints[queries],
            used_default=snap.used_default[queries],
            expected_latency=snap.expected_latency[queries],
        )
        self._tracer.end("cache.lookup", start)
        return decisions

    def decide_rows(self, rows: List[int]) -> Tuple[list, list, list]:
        """`decide` for a few rows held as a plain list: ``(hints,
        used_default, expected_latency)`` lists parallel to ``rows``, read
        from plain-list copies of the snapshot's arrays with no array built
        (a list index costs a tenth of a numpy gather's fixed cost).  ``rows``
        are indices their owner resolved (a cluster's routing directory), so
        only one past the end is caught here.  Telemetry is `decide`'s."""
        start = self._tracer.begin("cache.lookup")
        snap = self.current()
        if snap.version != self._row_lists_version:
            self._follow(snap)
        hints, used_default, expected = self._row_lists
        try:
            decided = (
                [hints[row] for row in rows],
                [used_default[row] for row in rows],
                [expected[row] for row in rows],
            )
        except IndexError:
            raise ServingError(f"row out of range [0, {len(hints)}): max {max(rows)}") from None
        self._tracer.end("cache.lookup", start)
        return decided

    def _follow(self, snap: CacheSnapshot) -> None:
        """Bring the row lists to ``snap``: the rows written since they were
        last read are overwritten in place (a write costs the next read its
        own rows, not the shard's); a changed row set starts over (`tolist`)."""
        arrays = (snap.hints, snap.used_default, snap.expected_latency)
        changed = None
        if self._row_lists is not None:
            changed = self.matrix.rows_changed_since(self._row_lists_version)
        if changed is None:
            self._row_lists = tuple(array.tolist() for array in arrays)
        else:
            rows = changed.tolist()
            for column, array in zip(self._row_lists, arrays):
                for row, value in zip(rows, array[changed].tolist()):
                    column[row] = value
        self._row_lists_version = snap.version
