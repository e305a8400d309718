"""The batched hint-recommendation service (Figure 2's online path, scaled).

:class:`ServingService` is what a DBMS-side integration talks to under
heavy traffic:

* **serve**: batches of query arrivals are answered with one vectorised
  pass over precomputed decision arrays (:class:`BatchedPlanCache`) instead
  of a per-query row walk -- every answer still carries the paper's
  no-regression guarantee;
* **observe**: measured latencies flow back in batches
  (:meth:`WorkloadMatrix.observe_batch`), which automatically invalidates
  the decision arrays and, when an :class:`IncrementalALSRefresher` is
  attached, triggers a warm-started ALS update instead of a full recompute;
* **predict**: an optional :class:`BatchedLatencyEstimator` annotates
  decisions with TCNN-predicted latencies using a single padded forward
  pass per batch (optionally sliced from a pre-packed whole-plan-space
  tensor after an explicit :meth:`~BatchedLatencyEstimator.warm_up`);
* **report**: :meth:`stats` summarises throughput, p50/p99 decision
  latency, and the regression-guarantee hit rate.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.workload_matrix import WorkloadMatrix
from ..errors import ServingError
from ..plans.featurize import TreeBatch
from ..telemetry.runtime import Telemetry
from .batch_cache import BatchDecisions, BatchedPlanCache
from .refresh import IncrementalALSRefresher
from .stats import LatencyRecorder, ServingStats, checked_shed_count


class BatchedLatencyEstimator:
    """Batched TCNN inference: one padded forward pass per served batch.

    Each prediction call packs exactly the requested cells into one padded
    ``(batch, nodes, features)`` tensor and runs a single forward pass
    (:meth:`TCNNTrainer.predict_batch`); the per-cell plan arrays come out
    of the feature store's cache, so repeat cells cost only the pack.

    Operators who can afford the memory may call :meth:`warm_up` once
    (outside any latency-sensitive window) to have the *entire* plan space
    packed; batches are then answered by fancy-indexing row slices out of
    the big tensor with no per-batch packing at all.  The packed tensor is
    the feature store's own
    :meth:`~repro.plans.featurize.PlanFeatureStore.full_batch` -- the one
    the trainer fits and predicts from -- so the plan space is packed once
    per store, not once per consumer.  Warm-up is explicit rather than lazy
    because packing every ``(query, hint)`` cell of a large workload is a
    multi-second, memory-heavy operation that must not land inside a served
    batch's clock window.
    """

    def __init__(self, trainer, feature_store) -> None:
        self.trainer = trainer
        self.feature_store = feature_store
        self._packed: Optional[TreeBatch] = None
        self._packed_shape: Optional[Tuple[int, int]] = None

    def warm_up(self, shape: Tuple[int, int]) -> None:
        """Have the store pack every cell of a ``shape`` matrix (once per store)."""
        shape = (int(shape[0]), int(shape[1]))
        if shape != self.feature_store.shape:
            raise ServingError(
                f"cannot warm up a {shape} plan space from a feature store "
                f"of shape {self.feature_store.shape}"
            )
        self._packed = self.feature_store.full_batch()
        self._packed_shape = shape

    def predict(self, queries, hints, shape: Tuple[int, int]) -> np.ndarray:
        """Predicted latencies (seconds) for parallel query/hint arrays."""
        queries = np.asarray(queries, dtype=np.int64)
        hints = np.asarray(hints, dtype=np.int64)
        if queries.shape != hints.shape or queries.ndim != 1:
            raise ServingError("predict expects matching 1-D query/hint arrays")
        if queries.size == 0:
            return np.zeros(0)
        n_queries, n_hints = shape
        if self._packed is not None and self._packed_shape == (n_queries, n_hints):
            batch = self._packed.take(queries * n_hints + hints)
        else:
            batch = self.feature_store.batch(list(zip(queries.tolist(), hints.tolist())))
        return self.trainer.predict_batch(batch, queries, hints)

    def invalidate(self) -> None:
        """Let go of the warmed tensor (e.g. after the plan space changed)."""
        self._packed = None
        self._packed_shape = None


class ServingService:
    """High-throughput front end over the verified plan cache.

    Parameters
    ----------
    matrix:
        The live workload matrix (shared with the offline explorer).
    default_hint / regression_margin:
        Same meaning as for :class:`repro.core.plan_cache.PlanCache`.
    refresher:
        Optional :class:`IncrementalALSRefresher`; when present, feedback
        batches trigger a warm-started completion refresh.
    estimator:
        Optional :class:`BatchedLatencyEstimator` used to annotate
        decisions with model-predicted latencies.
    clock:
        Injectable time source for the latency telemetry (tests use a fake).
    recorder:
        Optional externally owned :class:`LatencyRecorder`.  A cluster
        shard passes its own so telemetry survives the service being
        rebuilt (e.g. after every row migrates away); by default the
        service owns a fresh one.
    monitor:
        Optional drift monitor (anything with a
        ``record(queries, hints, expected, measured)`` method, e.g. a
        :class:`repro.adaptive.DriftDetector` window).  It receives every
        :meth:`record_measured` feedback batch so an adaptation controller
        can watch live residuals without sitting on the serve path.
    journal:
        Optional write-ahead journal
        (:class:`~repro.durability.ShardJournal`), riding the same seam as
        ``recorder``: externally owned, survives service rebuilds.  It is
        attached to the *matrix*, so every mutation -- including ones that
        bypass this service, like re-exploration -- is logged before it
        applies; :meth:`record_measured` additionally journals executed
        decisions for audit.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  Only an *enabled*
        one is kept (``Telemetry.enabled()``): the service then counts in
        that context's registry (a recorder it builds itself; a passed
        ``recorder`` already names its cells), times the per-stage latency
        histograms, and stamps traces.  Disabled or absent, the counters
        live on a private registry, no clock is read for stages, and the
        decisions are byte-identical either way.
    """

    def __init__(
        self,
        matrix: WorkloadMatrix,
        default_hint: int = 0,
        regression_margin: float = 1.0,
        refresher: Optional[IncrementalALSRefresher] = None,
        estimator: Optional[BatchedLatencyEstimator] = None,
        clock=time.perf_counter,
        recorder: Optional[LatencyRecorder] = None,
        monitor=None,
        journal=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.matrix = matrix
        self.cache = BatchedPlanCache(
            matrix, default_hint=default_hint, regression_margin=regression_margin
        )
        self.refresher = refresher
        self.estimator = estimator
        self.monitor = monitor
        self.journal = journal
        if journal is not None:
            if (
                journal.next_lsn == 1
                and journal.appended_records == 0
                and journal.recovered_snapshot is None
            ):
                # A brand-new journal: bootstrap it with the matrix as it
                # stands, so recovery has a starting point.  (A cluster
                # shard logs its own import first; a recovered journal
                # already has history; both skip this.)
                journal.log_import(matrix.to_dict())
            matrix.journal = journal
        self._clock = clock
        # Normalised once here: the hot path's only stage-timing cost when
        # disabled is a single attribute-is-None check.
        self._telemetry = Telemetry.active(telemetry)
        if recorder is None:
            recorder = LatencyRecorder(
                self._telemetry.serving_metrics()
                if self._telemetry is not None
                else None
            )
        self._recorder = recorder
        self.cache.bind_telemetry(self._telemetry, recorder.metrics, clock)
        if journal is not None:
            journal.bind_telemetry(self._telemetry, clock)

    # -- the hot path ---------------------------------------------------------
    def serve_batch(self, queries, annotate: bool = False) -> BatchDecisions:
        """Answer a batch of query arrivals.

        Returns one decision per arrival, in arrival order.  With
        ``annotate=True`` (and an estimator attached) the decisions carry
        TCNN-predicted latencies for the served plans.
        """
        start = self._clock()
        decisions = self.cache.decide(queries)
        if annotate:
            if self.estimator is None:
                raise ServingError("annotate=True requires a latency estimator")
            predicted = self.estimator.predict(
                decisions.queries, decisions.hints, self.matrix.shape
            )
            decisions = BatchDecisions(
                queries=decisions.queries,
                hints=decisions.hints,
                used_default=decisions.used_default,
                expected_latency=decisions.expected_latency,
                predicted_latency=predicted,
            )
        elapsed = self._clock() - start
        self._recorder.record(
            decisions.batch_size, elapsed, decisions.non_default_count
        )
        tel = self._telemetry
        if tel is not None and tel.tracer._current is not None:
            # Stage attribution only inside an open trace (the ingress
            # path): a raw serve_batch already feeds repro_batch_seconds
            # through the recorder, and skipping the per-batch stage
            # observe keeps enabled overhead within the <=5% gate.
            tel.tracer.record_stage("shard.serve", elapsed)
        return decisions

    def serve_all(self, annotate: bool = False) -> BatchDecisions:
        """Answer every query in the workload as one batch."""
        return self.serve_batch(np.arange(self.matrix.n_queries), annotate=annotate)

    # -- the feedback path -----------------------------------------------------
    def observe_batch(
        self,
        queries: Sequence[int],
        hints: Sequence[int],
        latencies: Sequence[float],
        refresh: bool = True,
    ) -> None:
        """Feed measured latencies back into the serving matrix.

        The decision arrays refresh automatically on the next batch (the
        matrix version changed).  With ``refresh=True`` and a refresher
        attached, the low-rank completion is warm-started forward as well.
        """
        version_before = self.matrix.version
        tel = self._telemetry
        if tel is not None:
            start = self._clock()
        self.matrix.observe_batch(queries, hints, latencies)
        if tel is not None:
            tel.tracer.record_stage("observe", self._clock() - start)
        if (
            refresh
            and self.refresher is not None
            and self.matrix.version != version_before
        ):
            self.refresher.refresh(self.matrix)
            self._recorder.record_refresh()

    def record_measured(self, decisions: BatchDecisions, measured) -> None:
        """Report the *measured* latencies of an already-served batch.

        This is the residual telemetry hook the adaptation loop is built
        on: the attached ``monitor`` sees each arrival's served hint, the
        snapshot's expected latency at decision time, and what execution
        actually measured.  It is observation-free, so a detection-only
        deployment never mutates serving state.
        """
        measured = np.asarray(measured, dtype=float)
        if measured.shape != decisions.queries.shape:
            raise ServingError(
                f"record_measured needs one measurement per decision, got "
                f"{measured.shape} for batch of {decisions.batch_size}"
            )
        if self.monitor is not None:
            self.monitor.record(
                decisions.queries,
                decisions.hints,
                decisions.expected_latency,
                measured,
            )
        if self.journal is not None:
            self.journal.log_measured(decisions.queries, decisions.hints, measured)

    def invalidate(self, queries: Optional[Sequence[int]] = None) -> None:
        """Forget observations (all rows, or a subset) and drop warm state.

        The adaptation controller's response to detected drift: the stale
        rows' observations are erased (so they serve the default plan until
        re-verified -- the no-regression guarantee is anchored there), the
        decision snapshot recomputes on the next batch via the version
        bump, and a warmed estimator tensor is dropped.  No eager snapshot
        rebuild: callers typically mutate the matrix further (re-anchoring,
        re-exploration) before the next serve, and the version bump already
        guarantees freshness.
        """
        self.matrix.invalidate(queries)
        if self.estimator is not None:
            self.estimator.invalidate()

    def completed_matrix(self) -> np.ndarray:
        """Up-to-date completed latency estimate (requires a refresher)."""
        if self.refresher is None:
            raise ServingError("completed_matrix requires an ALS refresher")
        return self.refresher.completed_matrix(self.matrix)

    # -- shard-embedding hooks -------------------------------------------------
    def refresh_now(self) -> bool:
        """Run the attached refresher against the current matrix state.

        The hook a background scheduler (e.g. the cluster's
        :class:`~repro.cluster.scheduler.RefreshScheduler`) calls *between*
        serve batches: feedback is recorded with ``refresh=False`` on the
        hot path and the ALS work happens here instead.  Returns True when
        a solve actually ran (the matrix had changed), False for a no-op.
        """
        if self.refresher is None:
            raise ServingError("refresh_now requires an ALS refresher")
        before = self.refresher.cold_solves + self.refresher.warm_refreshes
        self.refresher.refresh(self.matrix)
        ran = (self.refresher.cold_solves + self.refresher.warm_refreshes) > before
        if ran:
            self._recorder.record_refresh()
        return ran

    @property
    def recorder(self) -> LatencyRecorder:
        """The raw latency recorder (cluster aggregators pool these)."""
        return self._recorder

    # -- telemetry ----------------------------------------------------------------
    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The enabled telemetry context, or None (disabled counts as None)."""
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
