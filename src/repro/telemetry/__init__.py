"""Unified observability: metrics registry, request tracing, snapshots.

See ``docs/observability.md`` for the metric catalog, trace stages, and
snapshot schema.  Everything here is off by default: components only
instrument when handed a :class:`Telemetry` (``telemetry=Telemetry()``);
``telemetry=None`` is off.
"""

from .registry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .runtime import (
    ClusterMetrics,
    JournalMetrics,
    ServingMetrics,
    Telemetry,
)
from .snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    TelemetrySnapshot,
    collect_snapshot,
    write_telemetry_json,
)
from .tracing import STAGES, Trace, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL",
    "Telemetry",
    "ServingMetrics",
    "JournalMetrics",
    "ClusterMetrics",
    "Trace",
    "Tracer",
    "STAGES",
    "TelemetrySnapshot",
    "SNAPSHOT_SCHEMA_VERSION",
    "collect_snapshot",
    "write_telemetry_json",
]
