"""The `Telemetry` facade: one object components share to emit metrics.

Construction cost is paid once; hot paths only ever touch pre-resolved
metric children.  Components accept ``telemetry=None`` and normalise at
construction time::

    self._telemetry = telemetry if telemetry is not None and telemetry.config.enabled else None

so the disabled path is a single ``if self._telemetry is not None``
branch -- byte-identical behaviour, zero extra allocations (regression-
tested in ``tests/test_telemetry.py``).

Per-shard usage: each shard gets its own ``Telemetry`` view (via
:meth:`Telemetry.labeled`) with its shard id as the default label; the
views share one registry and tracer, so cluster-wide exposition needs
no merge step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from ..config import DEFAULT_TELEMETRY_CONFIG, TelemetryConfig
from .registry import MetricsRegistry
from .tracing import Tracer

#: Well-known metric names.  Keep in sync with docs/observability.md.
DECISIONS_TOTAL = "repro_decisions_total"
BATCHES_TOTAL = "repro_batches_total"
NON_DEFAULT_TOTAL = "repro_non_default_total"
REFRESHES_TOTAL = "repro_refreshes_total"
SHED_TOTAL = "repro_shed_total"
WALL_SECONDS_TOTAL = "repro_serve_wall_seconds_total"
BATCH_SECONDS = "repro_batch_seconds"
STAGE_SECONDS = "repro_stage_seconds"
CACHE_REBUILDS_TOTAL = "repro_cache_rebuilds_total"
WAL_RECORDS_TOTAL = "repro_wal_records_total"
WAL_BYTES_TOTAL = "repro_wal_bytes_total"
CHECKPOINTS_TOTAL = "repro_checkpoints_total"
ROUTED_BATCHES_TOTAL = "repro_routed_batches_total"
FAN_OUT_TOTAL = "repro_fan_out_total"
DEGRADED_TOTAL = "repro_degraded_decisions_total"
CLUSTER_SHED_TOTAL = "repro_cluster_shed_total"
REBALANCED_ROWS_TOTAL = "repro_rebalanced_rows_total"
CRASHES_TOTAL = "repro_crashes_total"
RESTARTS_TOTAL = "repro_restarts_total"
QUEUED_FEEDBACK_TOTAL = "repro_queued_feedback_total"
REPLAYED_FEEDBACK_TOTAL = "repro_replayed_feedback_total"
INGRESS_FLUSHES_TOTAL = "repro_ingress_flushes_total"
SHARDS_GAUGE = "repro_shards"
SHARDS_UP_GAUGE = "repro_shards_up"
TENANTS_GAUGE = "repro_tenants"
ROWS_GAUGE = "repro_rows"
SCHEDULER_TICKS_GAUGE = "repro_scheduler_ticks"
SCHEDULER_REFRESHES_GAUGE = "repro_scheduler_refreshes"
SCHEDULER_BUDGET_GAUGE = "repro_scheduler_budget_per_tick"


class Telemetry:
    """Shared observability context: config + registry + tracer.

    Disabled (the :class:`~repro.config.TelemetryConfig` default) it is
    inert: components that receive it check ``config.enabled`` once at
    construction and keep no reference, so no instrumentation runs.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        shard_label: str = "all",
    ) -> None:
        self.config = config if config is not None else DEFAULT_TELEMETRY_CONFIG
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(max_label_values=self.config.max_label_values)
        )
        self.shard_label = str(shard_label)
        self.tracer = Tracer(
            self.registry,
            slow_trace_seconds=self.config.slow_trace_seconds,
            ring_size=self.config.trace_ring,
        )
        self._bounds = self.config.latency_buckets
        # Lazy-mirror flush hooks (e.g. LatencyRecorder.sync_metrics),
        # run before any registry export so deferred counters are current.
        self._sync_fns: list = []

    @classmethod
    def enabled(cls, config: Optional[TelemetryConfig] = None) -> "Telemetry":
        """An opted-in instance (``TelemetryConfig.enabled`` flipped on)."""
        base = config if config is not None else DEFAULT_TELEMETRY_CONFIG
        if not base.enabled:
            base = TelemetryConfig(
                enabled=True,
                latency_buckets=base.latency_buckets,
                slow_trace_seconds=base.slow_trace_seconds,
                trace_ring=base.trace_ring,
                max_label_values=base.max_label_values,
            )
        return cls(base)

    def child(self, shard_label: str) -> "Telemetry":
        """A per-shard view: same config, own registry, own tracer.

        Shards mutate their own registries (no sharing across workers);
        :meth:`merged_registry` folds any set of children back into one
        cluster-wide view.
        """
        return Telemetry(
            self.config,
            registry=MetricsRegistry(
                max_label_values=self.config.max_label_values
            ),
            shard_label=shard_label,
        )

    def labeled(self, shard_label: str) -> "Telemetry":
        """A same-process view with a different default shard label.

        Config, registry, and tracer are *shared* -- this is how the
        in-process cluster hands one telemetry context to every shard
        while keeping their metric children separated by label (the whole
        stack runs one event-loop frame at a time, so sharing is safe).
        """
        view = Telemetry.__new__(Telemetry)
        view.config = self.config
        view.registry = self.registry
        view.shard_label = str(shard_label)
        view.tracer = self.tracer
        view._bounds = self._bounds
        view._sync_fns = self._sync_fns
        return view

    def merged_registry(
        self, children: Iterable["Telemetry"]
    ) -> MetricsRegistry:
        """This registry plus every child's, folded into a fresh one."""
        parts = [self.registry] + [c.registry for c in children]
        return MetricsRegistry.merged(parts)

    # -- pre-wired metric bundles ------------------------------------------
    def serving_metrics(self, shard: str = "") -> "ServingMetrics":
        """The well-known serving counters, resolved for one shard label."""
        return ServingMetrics(self, shard or self.shard_label)

    def journal_metrics(self, shard: str = "") -> "JournalMetrics":
        """The well-known durability counters for one shard label."""
        return JournalMetrics(self, shard or self.shard_label)

    def cluster_metrics(self) -> "ClusterMetrics":
        """The well-known cluster facade counters and topology gauges."""
        return ClusterMetrics(self)

    # -- deferred-mirror flushing -------------------------------------------
    def register_sync(self, fn) -> None:
        """Register a flush hook run before every registry export.

        Components whose mirrors are fed lazily (the
        :class:`~repro.serving.stats.LatencyRecorder` pushes counter
        deltas on cold paths only, keeping the serve hot path untouched)
        register their flush here so :meth:`snapshot` and
        :meth:`expose_text` always export current numbers.
        """
        if fn not in self._sync_fns:
            self._sync_fns.append(fn)

    def sync(self) -> None:
        """Run every registered flush hook (idempotent)."""
        for fn in self._sync_fns:
            fn()

    # -- export -------------------------------------------------------------
    def expose_text(self) -> str:
        self.sync()
        return self.registry.expose_text()

    def snapshot(self) -> Dict[str, Any]:
        self.sync()
        return {
            "registry": self.registry.snapshot(),
            "traces": self.tracer.snapshot(),
        }


class ServingMetrics:
    """Pre-resolved serving-path metric children for one shard label.

    Resolving ``labels(...)`` once at construction keeps the hot path to
    attribute loads plus float adds -- no dict lookups per batch.
    """

    __slots__ = (
        "decisions",
        "batches",
        "non_default",
        "refreshes",
        "shed",
        "wall_seconds",
        "batch_seconds",
        "cache_rebuilds",
    )

    def __init__(self, telemetry: Telemetry, shard: str) -> None:
        reg = telemetry.registry
        bounds = telemetry.config.latency_buckets
        self.decisions = reg.counter(
            DECISIONS_TOTAL, "Hint decisions served.", labels=("shard",)
        ).labels(shard)
        self.batches = reg.counter(
            BATCHES_TOTAL, "Batches served.", labels=("shard",)
        ).labels(shard)
        self.non_default = reg.counter(
            NON_DEFAULT_TOTAL,
            "Decisions that deviated from the default hint.",
            labels=("shard",),
        ).labels(shard)
        self.refreshes = reg.counter(
            REFRESHES_TOTAL, "Cache snapshot refreshes.", labels=("shard",)
        ).labels(shard)
        self.shed = reg.counter(
            SHED_TOTAL, "Requests shed by admission control.", labels=("shard",)
        ).labels(shard)
        self.wall_seconds = reg.counter(
            WALL_SECONDS_TOTAL,
            "Total serve_batch wall time (decision work only).",
            labels=("shard",),
        ).labels(shard)
        self.batch_seconds = reg.histogram(
            BATCH_SECONDS,
            "Amortised per-decision serve latency, weighted by batch size.",
            labels=("shard",),
            bounds=bounds,
        ).labels(shard)
        self.cache_rebuilds = reg.counter(
            CACHE_REBUILDS_TOTAL,
            "Batch-cache snapshot rebuilds (version invalidations).",
            labels=("shard",),
        ).labels(shard)


class JournalMetrics:
    """Pre-resolved durability metric children for one shard label."""

    __slots__ = ("wal_records", "wal_bytes", "checkpoints")

    def __init__(self, telemetry: Telemetry, shard: str) -> None:
        reg = telemetry.registry
        self.wal_records = reg.counter(
            WAL_RECORDS_TOTAL, "WAL records appended.", labels=("shard",)
        ).labels(shard)
        self.wal_bytes = reg.counter(
            WAL_BYTES_TOTAL, "WAL bytes appended.", labels=("shard",)
        ).labels(shard)
        self.checkpoints = reg.counter(
            CHECKPOINTS_TOTAL, "Checkpoints taken.", labels=("shard",)
        ).labels(shard)


class ClusterMetrics:
    """Pre-resolved cluster-facade counters and topology gauges.

    Counters are incremented at their event sites (route, degrade, crash,
    restart, rebalance); the topology and scheduler *gauges* are refreshed
    by :meth:`ServingCluster.stats` -- cold-path, always-current at report
    time.
    """

    __slots__ = (
        "routed_batches",
        "fan_out",
        "degraded",
        "shed",
        "rebalanced_rows",
        "crashes",
        "restarts",
        "queued_feedback",
        "replayed_feedback",
        "shards",
        "shards_up",
        "tenants",
        "total_rows",
        "scheduler_ticks",
        "scheduler_refreshes",
        "scheduler_budget",
    )

    def __init__(self, telemetry: Telemetry) -> None:
        reg = telemetry.registry
        self.routed_batches = reg.counter(
            ROUTED_BATCHES_TOTAL, "Batches routed through the cluster."
        ).child
        self.fan_out = reg.counter(
            FAN_OUT_TOTAL, "Per-shard sub-batches produced by routing."
        ).child
        self.degraded = reg.counter(
            DEGRADED_TOTAL, "Arrivals answered by failover default plans."
        ).child
        self.shed = reg.counter(
            CLUSTER_SHED_TOTAL, "Arrivals shed before reaching any shard."
        ).child
        self.rebalanced_rows = reg.counter(
            REBALANCED_ROWS_TOTAL, "Rows migrated by topology changes."
        ).child
        self.crashes = reg.counter(
            CRASHES_TOTAL, "Shard processes lost (kill or injected fault)."
        ).child
        self.restarts = reg.counter(
            RESTARTS_TOTAL, "Shards recovered from their journals."
        ).child
        self.queued_feedback = reg.counter(
            QUEUED_FEEDBACK_TOTAL, "Observations queued during shard outages."
        ).child
        self.replayed_feedback = reg.counter(
            REPLAYED_FEEDBACK_TOTAL, "Queued observations applied by restarts."
        ).child
        self.shards = reg.gauge(SHARDS_GAUGE, "Current shard count.").child
        self.shards_up = reg.gauge(
            SHARDS_UP_GAUGE, "Shards currently serving verified plans."
        ).child
        self.tenants = reg.gauge(TENANTS_GAUGE, "Registered tenants.").child
        self.total_rows = reg.gauge(
            ROWS_GAUGE, "Rows across all shards."
        ).child
        self.scheduler_ticks = reg.gauge(
            SCHEDULER_TICKS_GAUGE, "Background refresh-scheduler ticks."
        ).child
        self.scheduler_refreshes = reg.gauge(
            SCHEDULER_REFRESHES_GAUGE, "Warm ALS refreshes the scheduler ran."
        ).child
        self.scheduler_budget = reg.gauge(
            SCHEDULER_BUDGET_GAUGE, "Dirty shards refreshed per tick."
        ).child
