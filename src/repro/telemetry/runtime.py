"""The `Telemetry` facade: one object components share to emit metrics.

Construction cost is paid once; hot paths only ever touch pre-resolved
metric children.  The bundles below (:class:`ServingMetrics`,
:class:`JournalMetrics`, :class:`AdaptiveMetrics`, :class:`ClusterMetrics`)
are the *only* store for the counts they name, so every component always
holds one: built on the shared registry when it is handed a ``Telemetry``,
on a private registry nobody exports otherwise.  The shard-labeled cells
outlive the objects that count in them -- a restarted shard's journal and a
rebuilt shard's adaptation controller reuse them -- and per-object numbers
(``journal.appended_records``, ``controller.stats``) are views over them.
Components take ``telemetry=None`` for off, so passing one gates only what
costs clock reads (stage timing, the trace ring) and export: off, a
component holds the no-op ``tracing.OFF`` tracer -- byte-identical
decisions, zero extra allocations (regression-tested in
``tests/test_telemetry.py``).

Per-shard usage: each shard gets its own ``Telemetry`` view (via
:meth:`Telemetry.labeled`) with its shard id as the default label; the
views share one registry and tracer, so cluster-wide exposition needs
no merge step.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import MetricsRegistry
from .tracing import Tracer

#: The one metric name another module reads by name; the rest of the
#: catalog is the cell tables below.  ``tests/test_telemetry.py`` holds
#: docs/observability.md's catalog to the families a cluster registers.
INGRESS_FLUSHES_TOTAL = "repro_ingress_flushes_total"

#: :class:`ServingMetrics` counters, shard-labeled: attribute -> (family,
#: help).
SERVING_COUNTERS = {
    "decisions": ("repro_decisions_total", "Hint decisions served."),
    "batches": ("repro_batches_total", "Batches served."),
    "wall_seconds": (
        "repro_serve_wall_seconds_total",
        "Total serve_batch wall time (decision work only).",
    ),
    "non_default": (
        "repro_non_default_total", "Decisions that deviated from the default hint."
    ),
    "refreshes": ("repro_refreshes_total", "Background ALS refreshes that ran."),
    "refresh_failures": (
        "repro_refresh_failures_total",
        "Background ALS refreshes that failed (CompletionError).",
    ),
    "shed": ("repro_shed_total", "Requests shed by admission control."),
    "cache_rebuilds": (
        "repro_cache_rebuilds_total",
        "Full batch-cache snapshot rebuilds (first build, row set changed).",
    ),
    "cache_patched_rows": (
        "repro_cache_patched_rows_total",
        "Rows re-decided by batch-cache snapshot patches after writes.",
    ),
}

#: :class:`ServingMetrics` histograms, shard-labeled.
SERVING_HISTOGRAMS = {
    "batch_seconds": (
        "repro_batch_seconds", "Amortised per-decision serve latency, weighted by batch size."
    ),
}

#: :class:`JournalMetrics` counters, shard-labeled.
JOURNAL_COUNTERS = {
    "wal_records": ("repro_wal_records_total", "WAL records appended."),
    "wal_bytes": ("repro_wal_bytes_total", "WAL bytes appended."),
    "checkpoints": ("repro_checkpoints_total", "Checkpoints taken."),
}

#: :class:`AdaptiveMetrics` counters and gauges, shard-labeled.
ADAPTIVE_COUNTERS = {
    "ticks": ("repro_adapt_ticks_total", "Adaptation controller heartbeats."),
    "responses": ("repro_adapt_responses_total", "Budgeted responses."),
    "drift_responses": ("repro_adapt_drift_responses_total", "Responses the drift score set off."),
    "unseen_responses": ("repro_adapt_unseen_responses_total", "Responses unseen rows set off."),
    "sweep_responses": ("repro_adapt_sweep_responses_total", "Responses to per-row persistence."),
    "recovery_passes": ("repro_adapt_recovery_passes_total", "Budgeted recovery-backlog passes."),
    "invalidated_rows": ("repro_adapt_invalidated_rows_total", "Rows invalidated by responses."),
    "remeasured_cells": ("repro_adapt_remeasured_cells_total", "Default plans re-measured."),
    "explored_cells": ("repro_adapt_explored_cells_total", "Cells re-explored by Algorithm 1."),
}
ADAPTIVE_GAUGES = {
    "backlog_rows": ("repro_adapt_backlog_rows", "Rows awaiting re-verification."),
    "last_drift_score": ("repro_adapt_last_drift_score", "Drift score at the last status read."),
    "last_unseen_rate": ("repro_adapt_last_unseen_rate", "Unseen rate at the last status read."),
}

#: :class:`ClusterMetrics` facade counters, unlabeled.
CLUSTER_COUNTERS = {
    "routed_batches": (
        "repro_routed_batches_total", "Batches routed through the cluster."
    ),
    "fan_out": ("repro_fan_out_total", "Per-shard sub-batches produced by routing."),
    "degraded": (
        "repro_degraded_decisions_total", "Arrivals answered by failover default plans."
    ),
    "shed": ("repro_cluster_shed_total", "Arrivals shed before reaching any shard."),
    "rebalanced_rows": (
        "repro_rebalanced_rows_total", "Rows migrated by topology changes."
    ),
    "crashes": (
        "repro_crashes_total", "Shard processes lost (kill or injected fault)."
    ),
    "restarts": ("repro_restarts_total", "Shards recovered from their journals."),
    "queued_feedback": (
        "repro_queued_feedback_total", "Observations queued during shard outages."
    ),
    "replayed_feedback": (
        "repro_replayed_feedback_total", "Queued observations applied by restarts."
    ),
}

#: :class:`ClusterMetrics` topology and scheduler gauges, unlabeled.
CLUSTER_GAUGES = {
    "shards": ("repro_shards", "Current shard count."),
    "shards_up": ("repro_shards_up", "Shards currently serving verified plans."),
    "tenants": ("repro_tenants", "Registered tenants."),
    "total_rows": ("repro_rows", "Rows across all shards."),
    "scheduler_ticks": ("repro_scheduler_ticks", "Background refresh-scheduler ticks."),
    "scheduler_refreshes": (
        "repro_scheduler_refreshes", "Warm ALS refreshes the scheduler ran."
    ),
}


class Telemetry:
    """Shared observability context: one registry and one tracer.

    Passing one is what turns telemetry on: a component handed a
    ``Telemetry`` times its stages, keeps traces and counts on the shared
    registry; one built with ``telemetry=None`` does none of that.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.shard_label = "all"
        self.tracer = Tracer(self.registry)

    def labeled(self, shard_label: str) -> "Telemetry":
        """A same-process view with a different default shard label.

        Registry and tracer are *shared* -- this is how the in-process
        cluster hands one telemetry context to every shard while keeping
        their metric children separated by label (the whole stack runs one
        event-loop frame at a time, so sharing is safe).
        """
        view = Telemetry.__new__(Telemetry)
        view.registry = self.registry
        view.shard_label = str(shard_label)
        view.tracer = self.tracer
        return view

    # -- pre-wired metric bundles ------------------------------------------
    def serving_metrics(self) -> "ServingMetrics":
        """The well-known serving counters, resolved for this view's shard label."""
        return ServingMetrics(self.registry, self.shard_label)

    # -- export -------------------------------------------------------------
    def expose_text(self) -> str:
        return self.registry.expose_text()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "registry": self.registry.snapshot(),
            "traces": self.tracer.snapshot(),
        }


class _Cells:
    """Cells resolved once from ``TABLES`` (``(kind, {attribute: (family,
    help)})`` pairs), shard-labeled unless ``LABELS`` is empty: the hot path
    is attribute loads plus float adds.  With no ``registry`` they live on a
    fresh private one, the store of a component nobody handed a Telemetry.
    """

    LABELS = ("shard",)
    __slots__ = ()

    def __init__(self, registry: Optional[MetricsRegistry] = None, shard: str = "all") -> None:
        reg = registry if registry is not None else MetricsRegistry()
        for kind, table in self.TABLES:
            for attr, (name, help_text) in table.items():
                family = getattr(reg, kind)(name, help_text, labels=self.LABELS)
                setattr(self, attr, family.labels(shard) if self.LABELS else family.child)


class ServingMetrics(_Cells):
    """The serving-path cells of one shard label."""

    TABLES = (("counter", SERVING_COUNTERS), ("histogram", SERVING_HISTOGRAMS))
    __slots__ = (*SERVING_COUNTERS, *SERVING_HISTOGRAMS)


class JournalMetrics(_Cells):
    """The durability cells of one shard label: they span its journals."""

    TABLES = (("counter", JOURNAL_COUNTERS),)
    __slots__ = tuple(JOURNAL_COUNTERS)


class AdaptiveMetrics(_Cells):
    """The adaptation cells of one shard label: they span its controllers."""

    TABLES = (("counter", ADAPTIVE_COUNTERS), ("gauge", ADAPTIVE_GAUGES))
    __slots__ = (*ADAPTIVE_COUNTERS, *ADAPTIVE_GAUGES)


class ClusterMetrics(_Cells):
    """The cluster-facade counters and topology gauges, unlabeled.

    Counters are incremented at their event sites (route, degrade, crash,
    restart, rebalance); the topology and scheduler *gauges* are refreshed
    by :meth:`ServingCluster.stats` -- cold-path, always-current at report
    time.
    """

    TABLES = (("counter", CLUSTER_COUNTERS), ("gauge", CLUSTER_GAUGES))
    LABELS = ()
    __slots__ = (*CLUSTER_COUNTERS, *CLUSTER_GAUGES)
