"""The batched hint-recommendation service (Figure 2's online path, scaled).

:class:`ServingService` is what a DBMS-side integration talks to under
heavy traffic:

* **serve**: batches of query arrivals are answered with one vectorised
  pass over precomputed decision arrays (:class:`BatchedPlanCache`) instead
  of a per-query row walk -- every answer still carries the paper's
  no-regression guarantee;
* **observe**: measured latencies flow back in batches
  (:meth:`WorkloadMatrix.observe_batch`), which patches the decision
  arrays' touched rows on the next batch -- no matrix completion runs here
  (a served plan is always an observed one);
* **report**: :meth:`stats` summarises throughput, p50/p99 decision
  latency, and the regression-guarantee hit rate.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.workload_matrix import WorkloadMatrix
from ..errors import ServingError
from ..telemetry.runtime import Telemetry
from ..telemetry.tracing import OFF
from .batch_cache import BatchDecisions, BatchedPlanCache
from .stats import LatencyRecorder, ServingStats, checked_shed_count


class ServingService:
    """High-throughput front end over the verified plan cache.

    Parameters
    ----------
    matrix:
        The live workload matrix (shared with the offline explorer).  Its
        column :data:`~repro.core.plan_cache.DEFAULT_HINT` is the default
        plan, and a verified plan is served only when it is no slower (the
        :class:`~repro.core.plan_cache.PlanCache` rule).
    clock:
        Injectable time source for the latency telemetry (tests use a fake).
    recorder:
        Optional externally owned :class:`LatencyRecorder`.  A cluster
        shard passes its own so telemetry survives the service being
        rebuilt (e.g. after every row migrates away); by default the
        service owns a fresh one.
    journal:
        Optional write-ahead journal
        (:class:`~repro.durability.ShardJournal`), riding the same seam as
        ``recorder``: externally owned, survives service rebuilds.  It is
        attached to the *matrix*, so every mutation -- including ones that
        bypass this service, like re-exploration -- is logged before it
        applies.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  Given one, the
        service counts in that context's registry (a recorder it builds
        itself; a passed ``recorder`` already names its cells), times the
        per-stage latency histograms, and stamps traces.  With None the
        counters live on a private registry, no clock is read for stages,
        and the decisions are byte-identical either way.
    """

    def __init__(
        self,
        matrix: WorkloadMatrix,
        clock=time.perf_counter,
        recorder: Optional[LatencyRecorder] = None,
        journal=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.matrix = matrix
        self.cache = BatchedPlanCache(matrix)
        self.journal = journal
        if journal is not None:
            if journal.next_lsn == 1 and journal.recovered_snapshot is None:
                # A brand-new journal: bootstrap it with the matrix as it
                # stands, so recovery has a starting point.  (A cluster
                # shard logs its own import first; a recovered journal
                # already has history; both skip this.)
                journal.log_import(matrix.to_dict())
            matrix.journal = journal
        self._clock = clock
        self._telemetry = telemetry
        self._tracer = OFF if telemetry is None else telemetry.tracer
        if recorder is None:
            recorder = LatencyRecorder(
                None if telemetry is None else telemetry.serving_metrics()
            )
        self._recorder = recorder
        self.cache.bind_telemetry(telemetry, recorder.metrics)
        if journal is not None:
            journal.bind_telemetry(telemetry)

    # -- the hot path ---------------------------------------------------------
    def serve_batch(self, queries) -> BatchDecisions:
        """Answer a batch of query arrivals: one decision per arrival, in
        arrival order."""
        start = self._clock()
        decisions = self.cache.decide(queries)
        self._served(start, decisions.batch_size, decisions.non_default_count)
        return decisions

    def serve_rows(self, rows: List[int]) -> Tuple[list, list, list]:
        """`serve_batch` for a few rows held as a plain list, answered as
        lists (:meth:`BatchedPlanCache.decide_rows`); counted and timed alike."""
        start = self._clock()
        decided = self.cache.decide_rows(rows)
        self._served(start, len(rows), decided[1].count(False))
        return decided

    def _served(self, start: float, batch_size: int, non_default: int) -> None:
        elapsed = self._clock() - start
        self._recorder.record(batch_size, elapsed, non_default)
        self._tracer.record_stage("shard.serve", elapsed)

    def serve_all(self) -> BatchDecisions:
        """Answer every query in the workload as one batch."""
        return self.serve_batch(np.arange(self.matrix.n_queries))

    # -- the feedback path -----------------------------------------------------
    def observe_batch(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        latencies: Sequence[float],
    ) -> None:
        """Feed measured latencies back into the serving matrix.

        The decision arrays refresh automatically on the next batch (the
        matrix version changed).
        """
        start = self._tracer.begin("observe")
        self.matrix.observe_batch(queries, hints, latencies)
        self._tracer.end("observe", start)

    def observe_censored_batch(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        lower_bounds: Sequence[float],
    ) -> None:
        """Feed timed-out executions back: each bound is a lower bound on
        its cell's latency (:meth:`WorkloadMatrix.observe_censored_batch`)."""
        start = self._tracer.begin("censor")
        self.matrix.observe_censored_batch(queries, hints, lower_bounds)
        self._tracer.end("censor", start)

    # -- shard-embedding hooks -------------------------------------------------
    @property
    def recorder(self) -> LatencyRecorder:
        """The raw latency recorder (cluster aggregators pool these)."""
        return self._recorder

    # -- telemetry ----------------------------------------------------------------
    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The telemetry context, or None when telemetry is off."""
        return self._telemetry

    def record_shed(self, count: int = 1) -> None:
        """Count arrivals an ingress layer degraded to default plans.

        This is where a shed count enters a single-service stack, so it
        is validated here (:class:`~repro.errors.ServingError`).
        """
        self._recorder.record_shed(checked_shed_count(count, ServingError))

    def stats(self) -> ServingStats:
        """Throughput / latency / hit-rate report over everything served."""
        return self._recorder.report()

    def reset_stats(self) -> None:
        """Restart the report from zero (registry cells stay monotonic; the
        decision arrays are untouched)."""
        self._recorder.reset()
