"""One serving shard: a routed slice of rows behind a `ServingService`.

A shard owns the full single-node serving stack from PR 1 -- its own
:class:`WorkloadMatrix` (only the rows routed to it), a
:class:`ServingService` (which carries the vectorised
:class:`~repro.serving.batch_cache.BatchedPlanCache`), and an
:class:`IncrementalALSRefresher` -- plus the row bookkeeping the cluster
needs: a routing-key -> local-row table, and export / import / remove
operations so rows can migrate between shards live (rebalancing keeps every
observation and censored lower bound; the receiving shard's decisions for a
migrated row are byte-identical to the sender's).

The matrix is created lazily on the first row: :class:`WorkloadMatrix`
requires at least one row, and a freshly added shard legitimately owns
nothing until the router hands it keys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ALSConfig
from ..core.workload_matrix import WorkloadMatrix
from ..durability.journal import ShardJournal
from ..durability.recovery import RecoveredState, recover_journal
from ..errors import ClusterError, CompletionError
from ..serving.batch_cache import BatchDecisions
from ..serving.refresh import IncrementalALSRefresher
from ..serving.service import ServingService
from ..serving.stats import LatencyRecorder, ServingStats


class ClusterShard:
    """Lifecycle and row bookkeeping for one shard of the cluster.

    Its service serves by the one no-regression rule, whose default plan
    (:data:`~repro.core.plan_cache.DEFAULT_HINT`) is also what the cluster
    serves degraded rows with.
    With a ``journal`` attached every matrix mutation is written ahead to
    disk, :meth:`checkpoint` bounds the log, and :meth:`recover` rebuilds
    the shard after :meth:`crash`.
    """

    def __init__(
        self,
        shard_id: int,
        n_hints: int,
        als_config: Optional[ALSConfig] = None,
        journal: Optional[ShardJournal] = None,
        telemetry=None,
    ) -> None:
        if n_hints < 1:
            raise ClusterError(f"shard needs a positive hint count, got {n_hints}")
        self.shard_id = int(shard_id)
        self.n_hints = int(n_hints)
        self.refresher = IncrementalALSRefresher(als_config)
        self.journal = journal
        self.crashed = False
        self.recovered: Optional[RecoveredState] = None
        self.matrix: Optional[WorkloadMatrix] = None
        self.service: Optional[ServingService] = None
        self._rows: Dict[str, int] = {}
        self._refreshed_version: Optional[int] = None
        # The cluster's context viewed under this shard's label (or None);
        # handed to every service this shard builds so its stage timings
        # carry the shard's label.
        self.telemetry = (
            None if telemetry is None else telemetry.labeled(str(self.shard_id))
        )
        # Owned by the shard, not the service: the report must survive the
        # service being retired and rebuilt when every row migrates away.
        # It counts in the shard label's cells (private ones when nobody
        # exports them) and starts from zero, also after a recovery.
        self._recorder = LatencyRecorder(
            None if telemetry is None else self.telemetry.serving_metrics()
        )

    # -- row bookkeeping -----------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows this shard currently owns."""
        return len(self._rows)

    @property
    def keys(self) -> List[str]:
        """Routing keys in local row order."""
        return [] if self.matrix is None else list(self.matrix.query_names)

    def local_row(self, key: str) -> int:
        """Local row index of ``key`` (raises when not owned)."""
        try:
            return self._rows[key]
        except KeyError:
            raise ClusterError(
                f"shard {self.shard_id} does not own key {key!r}"
            ) from None

    def _empty_payload(self, keys: Sequence[str]) -> Dict:
        n = len(keys)
        return {
            "values": np.full((n, self.n_hints), np.inf),
            "observed": np.zeros((n, self.n_hints), dtype=bool),
            "censored": np.zeros((n, self.n_hints), dtype=bool),
            "timeouts": np.zeros((n, self.n_hints)),
            "query_names": list(keys),
        }

    def add_rows(self, keys: Sequence[str]) -> List[int]:
        """Create fully unobserved rows for new keys; returns local indices."""
        return self.import_rows(self._empty_payload(keys))

    def import_rows(self, payload: Dict) -> List[int]:
        """Attach rows (from :meth:`export_rows` or :meth:`add_rows`)."""
        names = list(payload["query_names"])
        for key in names:
            if key in self._rows:
                raise ClusterError(
                    f"shard {self.shard_id} already owns key {key!r}"
                )
        if not names:
            return []
        if self.crashed:
            raise ClusterError(
                f"shard {self.shard_id} has crashed; restart it before adding rows"
            )
        if self.matrix is None:
            matrix = WorkloadMatrix.from_dict(
                {**payload, "hint_names": [f"h{j}" for j in range(self.n_hints)]}
            )
            if self.journal is not None:
                # The matrix is not the shard's yet, so the write-ahead
                # record is logged here instead of by the matrix hook -- and
                # only once ``from_dict`` has accepted the payload.
                self.journal.log_import(payload)
            self.matrix = matrix
            self._build_service()
            indices = list(range(len(names)))
        else:
            indices = self.matrix.import_rows(payload)
        for key, index in zip(names, indices):
            self._rows[key] = index
        return indices

    def _build_service(self) -> None:
        """(Re)build the serving stack over the current matrix; the recorder,
        journal and telemetry label are the shard's and outlive it."""
        self.service = ServingService(
            self.matrix,
            recorder=self._recorder,
            journal=self.journal,
            telemetry=self.telemetry,
        )

    def export_rows(self, keys: Sequence[str]) -> Dict:
        """Row payload for a set of owned keys (for migration elsewhere)."""
        if self.matrix is None:
            raise ClusterError(f"shard {self.shard_id} owns no rows to export")
        return self.matrix.export_rows([self.local_row(k) for k in keys])

    def remove_rows(self, keys: Sequence[str]) -> None:
        """Drop owned rows after their migration; remaining rows re-index."""
        keys = list(keys)
        if not keys:
            return
        indices = [self.local_row(k) for k in keys]
        if len(indices) == self.n_rows:
            # The matrix cannot become empty; retire the whole serving stack.
            if self.journal is not None:
                self.journal.log_retire()
            if self.matrix is not None:
                self.matrix.journal = None
            self.matrix = None
            self.service = None
            self._rows.clear()
            self._refreshed_version = None
            return
        self.matrix.remove_queries(indices)
        self._rows = {key: row for row, key in enumerate(self.matrix.query_names)}

    # -- serving (called by the cluster with local row indices) ----------------
    def _serving(self) -> ServingService:
        if self.crashed:
            raise ClusterError(f"shard {self.shard_id} has crashed")
        if self.service is None:
            raise ClusterError(f"shard {self.shard_id} owns no rows yet")
        return self.service

    def serve_local(self, local_queries: np.ndarray) -> BatchDecisions:
        """Answer a sub-batch of locally indexed arrivals."""
        return self._serving().serve_batch(local_queries)

    def serve_rows(self, rows: List[int]) -> Tuple[list, list, list]:
        """`serve_local` for a few local rows held as a plain list
        (:meth:`ServingService.serve_rows`): lists in, lists out."""
        return self._serving().serve_rows(rows)

    def observe_local(self, local_queries, hints, latencies) -> None:
        """Record feedback for locally indexed rows.

        Never runs ALS inline -- the refresh happens when the cluster's
        background scheduler picks this shard (:meth:`refresh`), so a serve
        batch can never be stuck behind a recompute.
        """
        self._serving().observe_batch(local_queries, hints, latencies)

    def observe_censored_local(self, local_queries, hints, lower_bounds) -> None:
        """Record timed-out executions for locally indexed rows."""
        self._serving().observe_censored_batch(local_queries, hints, lower_bounds)

    # -- background refresh ----------------------------------------------------
    @property
    def is_dirty(self) -> bool:
        """True when observations landed since the last completed refresh.

        A shard that owns rows but holds no completed observation yet has
        nothing to complete (ALS rejects an empty mask): it is clean, so the
        scheduler neither spends a tick on it nor marks it refreshed.
        """
        if self.matrix is None:
            return False
        return (
            self._refreshed_version != self.matrix.version
            and self.matrix.observed_fraction() > 0.0
        )

    def refresh(self) -> bool:
        """Warm-started ALS refresh (scheduler hook); True when a solve ran.

        A failed solve (:class:`~repro.errors.CompletionError`: one finite
        but huge latency can overflow the factors) is counted in the
        shard's ``refresh_failures`` cell instead of raised, and the shard
        counts as refreshed at this version: it retries after its next write.
        """
        if self.matrix is None:
            return False
        refresher = self.refresher
        before = refresher.cold_solves + refresher.warm_refreshes
        try:
            refresher.refresh(self.matrix)
        except CompletionError:
            self._recorder.metrics.refresh_failures.inc()
        self._refreshed_version = self.matrix.version
        ran = refresher.cold_solves + refresher.warm_refreshes > before
        if ran:
            self._recorder.record_refresh()
        return ran

    # -- durability lifecycle ---------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot the matrix and truncate the WAL; returns the covered LSN."""
        if self.journal is None:
            raise ClusterError(f"shard {self.shard_id} has no journal to checkpoint")
        if self.crashed:
            raise ClusterError(f"shard {self.shard_id} has crashed")
        state = None if self.matrix is None else self.matrix.to_dict()
        return self.journal.checkpoint(state)

    def close(self) -> None:
        """Clean shutdown: final checkpoint, then release the journal."""
        if self.journal is not None and not self.crashed:
            self.checkpoint()
            self.journal.close()

    def crash(self) -> None:
        """Simulated process death: sever all in-memory serving state.

        The journal's file handles are dropped as-is (everything appended
        is already with the kernel), the matrix and service vanish, and
        only the cluster-side bookkeeping (``_rows``, telemetry) survives
        -- the cluster needs it to keep routing and queueing during the
        outage.  :meth:`recover` is the only way back.
        """
        if self.crashed:
            raise ClusterError(f"shard {self.shard_id} has already crashed")
        if self.matrix is not None:
            self.matrix.journal = None
        if self.journal is not None:
            self.journal.crash()
        self.matrix = None
        self.service = None
        self._refreshed_version = None
        self.crashed = True

    @classmethod
    def recover(
        cls,
        directory: str,
        shard_id: int,
        n_hints: int,
        als_config: Optional[ALSConfig] = None,
        fs=None,
        sync: str = "os",
        telemetry=None,
    ) -> "ClusterShard":
        """Rebuild a shard from its journal directory after a crash.

        Replays snapshot + WAL into a fresh matrix/service and resumes
        journaling where the log left off.  ``shard.recovered`` carries
        the replay accounting (including the adaptation backlog the owner
        should re-seed).
        """
        journal, state = recover_journal(directory, fs=fs, sync=sync)
        shard = cls(
            shard_id=shard_id,
            n_hints=n_hints,
            als_config=als_config,
            journal=journal,
            telemetry=telemetry,
        )
        if state.matrix is not None:
            if state.matrix.n_hints != shard.n_hints:
                raise ClusterError(
                    f"journal at {directory} holds {state.matrix.n_hints}-hint rows, "
                    f"shard expects {n_hints}"
                )
            shard.matrix = state.matrix
            shard._build_service()
            shard._rows = {
                name: index for index, name in enumerate(shard.matrix.query_names)
            }
        shard.recovered = state
        return shard

    # -- telemetry -------------------------------------------------------------
    def stats(self) -> ServingStats:
        """This shard's serving report (survives full-row retirement)."""
        return self._recorder.report()

    def recorder(self) -> LatencyRecorder:
        """Raw recorder for exact cluster-wide percentile pooling."""
        return self._recorder

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterShard(id={self.shard_id}, rows={self.n_rows}, "
            f"dirty={self.is_dirty})"
        )
