"""The `Telemetry` facade: one object components share to emit metrics.

Construction cost is paid once; hot paths only ever touch pre-resolved
metric children.  The bundles below (:class:`ServingMetrics`,
:class:`JournalMetrics`, :class:`ClusterMetrics`) are the *only* store
for the counters they name, so every component always holds one: built
on the shared registry when it is handed a ``Telemetry``, on a private
registry nobody exports otherwise.  Components take ``telemetry=None`` for
off, so passing one gates only what costs clock reads (stage timing, the
trace ring) and export: off, a component holds the no-op ``tracing.OFF``
tracer -- byte-identical decisions, zero extra allocations
(regression-tested in ``tests/test_telemetry.py``).

Per-shard usage: each shard gets its own ``Telemetry`` view (via
:meth:`Telemetry.labeled`) with its shard id as the default label; the
views share one registry and tracer, so cluster-wide exposition needs
no merge step.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import MetricsRegistry
from .tracing import Tracer

#: Well-known metric names other modules read by name; the rest of the
#: catalog is the cell tables below.  Keep in sync with docs/observability.md.
DECISIONS_TOTAL = "repro_decisions_total"
BATCH_SECONDS = "repro_batch_seconds"
INGRESS_FLUSHES_TOTAL = "repro_ingress_flushes_total"

#: :class:`ServingMetrics` counters, shard-labeled: attribute -> (family,
#: help).
SERVING_COUNTERS = {
    "decisions": (DECISIONS_TOTAL, "Hint decisions served."),
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
    def serving_metrics(self, shard: str = "") -> "ServingMetrics":
        """The well-known serving counters, resolved for one shard label."""
        return ServingMetrics(self.registry, shard or self.shard_label)

    def journal_metrics(self, shard: str = "") -> "JournalMetrics":
        """The well-known durability counters for one shard label."""
        return JournalMetrics(self.registry, shard or self.shard_label)

    def cluster_metrics(self) -> "ClusterMetrics":
        """The well-known cluster facade counters and topology gauges."""
        return ClusterMetrics(self.registry)

    # -- export -------------------------------------------------------------
    def expose_text(self) -> str:
        return self.registry.expose_text()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "registry": self.registry.snapshot(),
            "traces": self.tracer.snapshot(),
        }


class ServingMetrics:
    """Pre-resolved serving-path metric children for one shard label.

    Resolving ``labels(...)`` once at construction keeps the hot path to
    attribute loads plus float adds -- no dict lookups per batch.  With
    no ``registry`` the cells live on a fresh private one: the store of a
    component nobody handed a :class:`Telemetry`.
    """

    __slots__ = (*SERVING_COUNTERS, "batch_seconds")

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, shard: str = "all"
    ) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        for attr, (name, help_text) in SERVING_COUNTERS.items():
            family = reg.counter(name, help_text, labels=("shard",))
            setattr(self, attr, family.labels(shard))
        self.batch_seconds = reg.histogram(
            BATCH_SECONDS,
            "Amortised per-decision serve latency, weighted by batch size.",
            labels=("shard",),
        ).labels(shard)


class JournalMetrics:
    """Pre-resolved durability metric children for one shard label."""

    __slots__ = ("wal_records", "wal_bytes", "checkpoints")

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, shard: str = "all"
    ) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self.wal_records = reg.counter(
            "repro_wal_records_total", "WAL records appended.", labels=("shard",)
        ).labels(shard)
        self.wal_bytes = reg.counter(
            "repro_wal_bytes_total", "WAL bytes appended.", labels=("shard",)
        ).labels(shard)
        self.checkpoints = reg.counter(
            "repro_checkpoints_total", "Checkpoints taken.", labels=("shard",)
        ).labels(shard)


class ClusterMetrics:
    """Pre-resolved cluster-facade counters and topology gauges.

    Counters are incremented at their event sites (route, degrade, crash,
    restart, rebalance); the topology and scheduler *gauges* are refreshed
    by :meth:`ServingCluster.stats` -- cold-path, always-current at report
    time.
    """

    __slots__ = (*CLUSTER_COUNTERS, *CLUSTER_GAUGES)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        for attr, (name, help_text) in CLUSTER_COUNTERS.items():
            setattr(self, attr, reg.counter(name, help_text).child)
        for attr, (name, help_text) in CLUSTER_GAUGES.items():
            setattr(self, attr, reg.gauge(name, help_text).child)
