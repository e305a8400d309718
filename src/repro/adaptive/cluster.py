"""The adaptation loop: drift feedback in, per-shard responses out.

:class:`ClusterAdaptationController` is the one door drift feedback enters
through.  It runs the drift loop on top of a
:class:`~repro.cluster.cluster.ServingCluster` (a lone service's stack is a
one-shard cluster):

* residual feedback for a tenant batch is attributed to the *owning
  shards* via :meth:`ServingCluster.locate` and recorded in one shared
  :class:`~repro.adaptive.detector.DriftDetector` keyed by shard id;
* each shard that trips a threshold gets its own budgeted
  :class:`~repro.adaptive.controller.AdaptationController` response
  (invalidation + default re-anchoring + Algorithm-1 re-exploration on the
  shard's matrix slice).

Attaching it is one construction; deployments on the asyncio front door
hand it to :class:`~repro.ingress.ClusterIngress`, which feeds it through
``record_measured`` and hosts :meth:`~ClusterAdaptationController.tick` as a
background task::

    controller = ClusterAdaptationController(cluster, cell_lookup)
    controller.record(tenant, decisions, measured)   # per served batch
    controller.tick()                                # background cadence

No serving decision reads the cluster's ALS completion, so a response
leaves it to the cluster's round-robin refresh scheduler.

Shard matrices re-index on row migration (``add_shard`` rebalancing), which
would silently mis-attribute window evidence recorded before the move --
so the cluster owner must call :meth:`notify_topology_change` after any
rebalance; it drops the per-shard controllers and window epochs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..cluster.cluster import ServingCluster
from ..cluster.router import split_batch
from ..errors import AdaptiveError
from ..serving.batch_cache import BatchDecisions
from ..telemetry.registry import MetricsRegistry
from ..telemetry.runtime import AdaptiveMetrics
from .controller import AdaptationController, AdaptiveStats
from .detector import DriftDetector
from .reexplore import RowOracle
from .residuals import relative_residuals


class ClusterAdaptationController:
    """Drift-aware control loop over every shard of a serving cluster.

    Parameters
    ----------
    cluster:
        The live cluster.
    cell_lookup:
        ``(routing_key, hint) -> latency``: one fresh live execution.  The
        routing key (``tenant/name``) is the stable identity of a row; the
        per-shard oracles translate their local row indices through the
        shard's ``query_names`` table at call time, so migrations between
        responses cannot mis-execute.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        cell_lookup: Callable[[str, int], float],
    ) -> None:
        if not callable(cell_lookup):
            raise AdaptiveError(
                "ClusterAdaptationController needs a (routing_key, hint) lookup"
            )
        self.cluster = cluster
        self.cell_lookup = cell_lookup
        self.detector = DriftDetector()
        self._controllers: Dict[int, AdaptationController] = {}
        # Each shard's counts, kept across the controllers the shard runs.
        telemetry = cluster.telemetry
        self._registry = MetricsRegistry() if telemetry is None else telemetry.registry
        self._metrics: Dict[int, AdaptiveMetrics] = {}

    # -- per-shard controller lifecycle ------------------------------------------
    def _controller_for(self, shard_id: int) -> Optional[AdaptationController]:
        shard = self.cluster.shards[shard_id]
        if shard.service is None:
            return None
        controller = self._controllers.get(shard_id)
        if controller is None or controller.service is not shard.service:
            oracle = RowOracle(
                lambda row, hint, shard=shard: self.cell_lookup(
                    shard.matrix.query_names[row], hint
                )
            )
            metrics = self._metrics.setdefault(
                shard_id, AdaptiveMetrics(self._registry, str(shard_id))
            )
            controller = AdaptationController(
                shard.service, oracle, self.detector, f"shard-{shard_id}", metrics
            )
            self._controllers[shard_id] = controller
        return controller

    # -- feedback -------------------------------------------------------------------
    def record(self, tenant: str, decisions: BatchDecisions, measured) -> None:
        """Attribute a tenant batch's residuals to the owning shards."""
        measured = np.asarray(measured, dtype=float)
        if measured.shape != decisions.queries.shape:
            raise AdaptiveError(
                "record needs one measurement per decision, got "
                f"{measured.shape} for batch of {decisions.batch_size}"
            )
        shard_ids, local = self.cluster.locate(tenant, decisions.queries)
        # One residual pass for the batch, then a slice per shard's window.
        residuals = relative_residuals(decisions.expected_latency, measured)
        for shard_id, positions in split_batch(shard_ids):
            controller = self._controller_for(shard_id)
            if controller is None:
                continue
            self.detector.window(controller.key).record_residuals(
                local[positions], residuals[positions]
            )
            self.detector.note_row_count(
                controller.service.matrix.n_queries, key=controller.key
            )

    # -- the background loop -----------------------------------------------------------
    def tick(self) -> List[int]:
        """One heartbeat across all shards; returns the shard ids that responded.

        Matrix completion is never run here: a response's writes mark its
        shard dirty for the cluster's refresh scheduler like any others.
        """
        responded: List[int] = []
        for shard_id in sorted(self._controllers):
            controller = self._controllers[shard_id]
            shard = self.cluster.shards.get(shard_id)
            if shard is None or shard.service is not controller.service:
                # Stale controller: the shard crashed (service severed) or
                # restarted under a new service object.  Never tick it --
                # it would mutate an orphaned matrix.  ``_controller_for``
                # rebuilds on the next recorded batch.
                continue
            if controller.tick():
                responded.append(shard_id)
        return responded

    def restore_backlog(self, shard_id: int, rows) -> None:
        """Re-seed a restarted shard's recovery backlog from its journal.

        Call after :meth:`ServingCluster.restart_shard` with the
        ``backlog`` of the returned
        :class:`~repro.durability.RecoveredState`: the rows a response had
        invalidated before the crash rejoin the re-verification queue, so
        a crash mid-drift never strands rows on the default plan.
        """
        controller = self._controller_for(int(shard_id))
        if controller is not None:
            controller.seed_backlog(rows)

    def notify_topology_change(self) -> None:
        """Drop shard controllers and window epochs after a rebalance.

        Local row indices recorded before a migration no longer name the
        same queries; starting fresh is the only sound interpretation.  The
        counts stay; the dropped backlogs read 0.
        """
        self._controllers.clear()
        self.detector.reset_all()
        for metrics in self._metrics.values():
            metrics.backlog_rows.set(0)

    # -- telemetry ------------------------------------------------------------------------
    def report(self) -> AdaptiveStats:
        """Every shard's counts, across restarts and topology changes."""
        return AdaptiveStats(self._metrics.values())
