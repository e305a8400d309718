"""A lock-cheap metrics registry: counters, gauges, fixed-bucket histograms.

Three design rules keep the registry usable on the serve hot path:

* **Mutation is O(1) python arithmetic.**  ``Counter.inc`` is one float
  add; ``Histogram.observe`` is one bisect plus two adds.  No locks: the
  whole serving stack runs on one event loop / one thread per shard, and
  cross-shard aggregation happens by *merging* labeled children, never
  by sharing mutable cells.
* **Fixed buckets make histograms mergeable.**  Every histogram of a
  family shares the same upper bounds, so merging is element-wise
  addition of bucket counts and ``merge(a, b)`` is exactly equivalent to
  observing the union of the samples (hypothesis-verified in
  ``tests/test_telemetry.py``).
* **Label cardinality is bounded.**  Past :data:`MAX_LABEL_VALUES` distinct
  label sets per metric, new label sets collapse into one shared
  ``"__overflow__"`` child and the registry's overflow counter
  increments -- an unbounded tenant-id stream degrades gracefully
  instead of growing the process without limit.

Mutating a metric's value *directly* (``counter.value = 5``) is not
possible -- ``value`` is a read-only property.  The registry is the only
store for the serving, cluster-facade and journal counters: the stats
classes (:class:`repro.serving.stats.LatencyRecorder`,
:class:`repro.cluster.stats.ClusterStats`) write and read these cells and
keep no totals of their own.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_BUCKETS
from ..errors import TelemetryError

OVERFLOW_LABEL = "__overflow__"
#: Distinct label sets one metric may hold before new ones collapse into the
#: shared overflow child: a tenant-id explosion must never OOM the metrics
#: layer.  The stack's own labels (shards, stages) stay far below it.
MAX_LABEL_VALUES = 64


class Counter:
    """A monotonically increasing count.  Mutate only through :meth:`inc`."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(f"counters only go up; got inc({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        """Current count (read-only; there is deliberately no setter)."""
        return self._value

    def merge_from(self, other: "Counter") -> None:
        """Fold another shard's counter into this one (sum)."""
        self._value += other._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, budget, LSN)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value (read-only property; mutate via set/inc/dec)."""
        return self._value

    def merge_from(self, other: "Gauge") -> None:
        """Fold another shard's gauge into this one (sum -- gauges in this
        library are extensive quantities: rows, segments, queue depths)."""
        self._value += other._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with a weighted observe and exact sum/count.

    ``bounds`` are inclusive upper bounds; one implicit ``+Inf`` bucket
    catches the tail.  ``observe(value, weight)`` charges ``weight``
    occurrences of ``value`` -- the serving layer uses this to record a
    batch's amortised per-decision latency once per batch, weighted by
    batch size, instead of looping per decision.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                "histogram bounds must be non-empty and strictly increasing"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``weight`` occurrences of ``value``."""
        self.counts[bisect_left(self.bounds, value)] += weight
        self.total += value * weight
        self.count += weight

    def observe_many(self, values) -> None:
        """Vectorised observe of a 1-D array of values."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        idx = np.searchsorted(self.bounds, values, side="left")
        for i, c in zip(*np.unique(idx, return_counts=True)):
            self.counts[int(i)] += int(c)
        self.total += float(values.sum())
        self.count += int(values.size)

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram in; bounds must match exactly."""
        if other.bounds != self.bounds:
            raise TelemetryError(
                "cannot merge histograms with different bucket bounds"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        Exact to within one bucket width; 0.0 on an empty histogram.  The
        estimate interpolates linearly inside the holding bucket, with the
        first bucket anchored at 0 and the ``+Inf`` bucket clamped to the
        last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank and c > 0:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i]
                fraction = (rank - (cumulative - c)) / c
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        """Exact mean of everything observed (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": int(self.count),
            "sum": float(self.total),
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): int(c)
                for i, c in enumerate(self.counts)
                if c
            },
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labeled children.

    An unlabeled metric is a family with a single anonymous child (the
    empty label tuple).  ``labels(...)`` returns -- creating on first use
    -- the child for one ordered tuple of label values, collapsing into
    the shared overflow child past :data:`MAX_LABEL_VALUES`.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        overflow_counter: Counter,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._overflow = overflow_counter
        self._bounds = tuple(bounds) if bounds is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not label_names:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._bounds or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, *values) -> Any:
        """The child for one ordered tuple of label values."""
        if len(values) != len(self.label_names):
            raise TelemetryError(
                f"{self.name} takes labels {self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if (
                len(self._children) >= MAX_LABEL_VALUES
                and key != (OVERFLOW_LABEL,) * len(self.label_names)
            ):
                # Cardinality guard: collapse into the shared overflow
                # child instead of growing without bound.
                self._overflow.inc()
                return self.labels(*((OVERFLOW_LABEL,) * len(self.label_names)))
            child = self._make_child()
            self._children[key] = child
        return child

    @property
    def child(self) -> Any:
        """The anonymous child of an unlabeled metric."""
        if self.label_names:
            raise TelemetryError(
                f"{self.name} is labeled by {self.label_names}; use labels()"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in insertion order."""
        return list(self._children.items())

    def merged_child(self) -> Any:
        """All children folded into one fresh metric (cross-label total)."""
        merged = self._make_child()
        for child in self._children.values():
            merged.merge_from(child)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        if not self.label_names:
            return {"kind": self.kind, "value": self._children[()].snapshot()}
        return {
            "kind": self.kind,
            "labels": list(self.label_names),
            "children": {
                ",".join(key): child.snapshot()
                for key, child in self._children.items()
            },
        }


class MetricsRegistry:
    """An ordered registry of metric families with exposition.

    Metric names follow the Prometheus convention (``repro_*_total`` for
    counters, ``*_seconds`` for latency histograms).  Registering the
    same name twice with the same signature returns the existing family,
    so independent components can share well-known metrics without
    coordination; a signature mismatch raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self.label_overflows = Counter()

    # -- registration -------------------------------------------------------
    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        bounds: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise TelemetryError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != labels:
                raise TelemetryError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        family = MetricFamily(
            name,
            help_text,
            kind,
            labels,
            self.label_overflows,
            bounds=bounds,
        )
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._register(name, help_text, "histogram", labels, bounds=bounds)

    # -- lookup -------------------------------------------------------------
    def get(self, name: str) -> MetricFamily:
        """The family registered under ``name``; raises when unknown."""
        try:
            return self._families[name]
        except KeyError:
            raise TelemetryError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    @property
    def names(self) -> List[str]:
        """Registered family names in registration order."""
        return list(self._families)

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dictionary of every family's state."""
        payload = {
            name: family.snapshot() for name, family in self._families.items()
        }
        payload["_label_overflows"] = self.label_overflows.value
        return payload

    def expose_text(self) -> str:
        """Prometheus-style text exposition of every family."""
        lines: List[str] = []
        for name, family in self._families.items():
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in family.children():
                label_str = _format_labels(family.label_names, key)
                if family.kind == "histogram":
                    cumulative = 0
                    for i, bound in enumerate(child.bounds):
                        cumulative += child.counts[i]
                        le = _format_labels(
                            family.label_names + ("le",), key + (repr(bound),)
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _format_labels(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{le} {child.count}")
                    lines.append(f"{name}_sum{label_str} {_num(child.total)}")
                    lines.append(f"{name}_count{label_str} {child.count}")
                else:
                    lines.append(f"{name}{label_str} {_num(child.value)}")
        lines.append(
            f"# TYPE repro_label_overflows_total counter\n"
            f"repro_label_overflows_total {_num(self.label_overflows.value)}"
        )
        return "\n".join(lines) + "\n"


def _format_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{v}"' for n, v in zip(names, values))
    return "{" + inner + "}"


def _num(value: float) -> str:
    """Render integral floats without the trailing .0 (counter convention)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))
