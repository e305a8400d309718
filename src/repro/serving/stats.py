"""Serving-side telemetry: throughput, decision-latency percentiles, hit rate.

A production hint-recommendation service lives or dies by two numbers: how
many decisions per second it sustains, and how long a single arrival waits
for its decision.  :class:`LatencyRecorder` accumulates per-batch timings as
they happen (running totals plus a fixed window of recent samples, so a
service that never restarts never grows); :class:`ServingStats` is the
immutable report derived from them on demand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from ..telemetry.runtime import (
    BATCH_SECONDS,
    BATCHES_TOTAL,
    DECISIONS_TOTAL,
    NON_DEFAULT_TOTAL,
    REFRESHES_TOTAL,
    SHED_TOTAL,
    WALL_SECONDS_TOTAL,
    ServingMetrics,
)


@dataclass(frozen=True)
class ServingStats:
    """A point-in-time report over everything the service has served.

    Attributes
    ----------
    decisions / batches:
        Total queries answered and the number of batches they arrived in.
    wall_seconds:
        Total decision time (excludes caller think-time between batches).
    throughput_qps:
        ``decisions / wall_seconds``.
    p50_latency_s / p99_latency_s:
        Percentiles of the *per-decision* latency: each decision in a batch
        is charged the batch's wall time divided by its size, which is the
        amortised latency an arrival experiences under batched execution.
    non_default_fraction:
        Fraction of decisions answered with a verified non-default plan --
        the regression-guarantee hit rate (every non-default answer carries
        the no-regression guarantee).
    refreshes:
        How many model/cache refreshes ran (incremental ALS updates).
    shed:
        Arrivals answered with the default plan by admission control
        (:mod:`repro.ingress` load-shedding) instead of the decision
        arrays.  Shed answers are valid decisions -- the no-regression
        guarantee is anchored on the default plan -- but they never touch
        the snapshot, so they are counted here and *not* in ``decisions``
        or the latency percentiles.
    """

    decisions: int
    batches: int
    wall_seconds: float
    throughput_qps: float
    p50_latency_s: float
    p99_latency_s: float
    non_default_fraction: float
    refreshes: int
    shed: int = 0

    def as_dict(self, registry=None) -> Dict[str, Union[int, float, Dict]]:
        """Plain dictionary for dashboards and log lines.

        Counters (``decisions``, ``batches``, ``refreshes``) stay integers;
        only the genuinely continuous fields are floats.  With a
        :class:`~repro.telemetry.MetricsRegistry` passed, the dictionary
        gains a ``telemetry`` section: the same report rebuilt from the
        registry mirror (:meth:`from_registry`) plus a ``consistent`` flag
        asserting the two counter sets agree -- the drift alarm between the
        legacy recorder and the registry.
        """
        out: Dict[str, Union[int, float, Dict]] = {
            "decisions": int(self.decisions),
            "batches": int(self.batches),
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "non_default_fraction": self.non_default_fraction,
            "refreshes": int(self.refreshes),
            "shed": int(self.shed),
        }
        if registry is not None:
            mirror = ServingStats.from_registry(registry)
            section = mirror.as_dict()
            section["consistent"] = (
                mirror.decisions == self.decisions
                and mirror.batches == self.batches
                and mirror.refreshes == self.refreshes
                and mirror.shed == self.shed
            )
            out["telemetry"] = section
        return out

    @classmethod
    def from_registry(
        cls, registry, shard: Optional[str] = None
    ) -> "ServingStats":
        """Rebuild the report from the registry's well-known serving metrics.

        The counters (decisions, batches, wall time, refreshes, shed) are
        exact -- :meth:`LatencyRecorder.sync_metrics` feeds them from the
        same samples :meth:`LatencyRecorder.report` folds, and every cold
        path that reads the registry syncs first.  The percentiles come
        from the fixed-bucket
        ``repro_batch_seconds`` histogram, so they are bucket-interpolated
        estimates rather than the recorder's exact sample percentiles.
        With ``shard`` given, only that label's children are read;
        otherwise every shard's children are merged first.
        """
        if DECISIONS_TOTAL not in registry:
            return cls(
                decisions=0, batches=0, wall_seconds=0.0, throughput_qps=0.0,
                p50_latency_s=0.0, p99_latency_s=0.0,
                non_default_fraction=0.0, refreshes=0, shed=0,
            )

        def child(name):
            family = registry.get(name)
            return (
                family.merged_child() if shard is None else family.labels(shard)
            )

        decisions = int(child(DECISIONS_TOTAL).value)
        wall = float(child(WALL_SECONDS_TOTAL).value)
        hist = child(BATCH_SECONDS)
        if wall > 0:
            throughput = decisions / wall
        else:
            throughput = 0.0 if decisions == 0 else float("inf")
        return cls(
            decisions=decisions,
            batches=int(child(BATCHES_TOTAL).value),
            wall_seconds=wall,
            throughput_qps=throughput,
            p50_latency_s=hist.quantile(0.50),
            p99_latency_s=hist.quantile(0.99),
            non_default_fraction=(
                float(child(NON_DEFAULT_TOTAL).value) / decisions
                if decisions
                else 0.0
            ),
            refreshes=int(child(REFRESHES_TOTAL).value),
            shed=int(child(SHED_TOTAL).value),
        )

    @classmethod
    def merge(cls, parts: Iterable["ServingStats"]) -> "ServingStats":
        """Fold per-shard reports into one cluster-wide report.

        Counters (decisions, batches, wall time, refreshes) merge exactly;
        throughput and the hit rate are recomputed from the merged counters.
        The percentiles are combined as a decision-weighted percentile of
        the per-part percentiles -- exact when every part is internally
        uniform, an approximation otherwise.  Aggregators holding the raw
        recorders (:meth:`LatencyRecorder.merged`) can recompute them
        exactly and overwrite these two fields.
        """
        parts = list(parts)
        decisions = sum(p.decisions for p in parts)
        batches = sum(p.batches for p in parts)
        wall = float(sum(p.wall_seconds for p in parts))
        refreshes = sum(p.refreshes for p in parts)
        shed = sum(p.shed for p in parts)
        if decisions == 0:
            return cls(
                decisions=0,
                batches=batches,
                wall_seconds=wall,
                throughput_qps=0.0,
                p50_latency_s=0.0,
                p99_latency_s=0.0,
                non_default_fraction=0.0,
                refreshes=refreshes,
                shed=shed,
            )
        served = [p for p in parts if p.decisions > 0]
        weights = [p.decisions for p in served]
        p50 = _weighted_percentiles([p.p50_latency_s for p in served], weights, [50.0])[0]
        p99 = _weighted_percentiles([p.p99_latency_s for p in served], weights, [99.0])[0]
        non_default = sum(p.non_default_fraction * p.decisions for p in served)
        return cls(
            decisions=int(decisions),
            batches=int(batches),
            wall_seconds=wall,
            throughput_qps=decisions / wall if wall > 0 else float("inf"),
            p50_latency_s=float(p50),
            p99_latency_s=float(p99),
            non_default_fraction=float(non_default) / decisions,
            refreshes=int(refreshes),
            shed=int(shed),
        )

    def __str__(self) -> str:
        return (
            f"ServingStats({self.decisions} decisions in {self.batches} batches, "
            f"{self.throughput_qps:,.0f} qps, "
            f"p50={self.p50_latency_s * 1e6:.1f}us, "
            f"p99={self.p99_latency_s * 1e6:.1f}us, "
            f"hit_rate={self.non_default_fraction:.1%}, "
            f"refreshes={self.refreshes}, "
            f"shed={self.shed})"
        )


def _weighted_percentiles(values, weights, qs) -> np.ndarray:
    """Percentiles of a population where ``values[i]`` occurs ``weights[i]``
    times, matching ``np.percentile`` (linear interpolation) on the expanded
    array without allocating it.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=np.int64)
    order = np.argsort(values)
    values = values[order]
    # cumulative[i] is the 1-based end index of group i in the sorted
    # expanded array; searchsorted recovers the group holding any index.
    cumulative = np.cumsum(weights[order])
    total = int(cumulative[-1])
    out = np.empty(len(qs))
    for i, q in enumerate(qs):
        position = q / 100.0 * (total - 1)
        low = int(np.floor(position))
        high = int(np.ceil(position))
        value_low = values[np.searchsorted(cumulative, low + 1)]
        value_high = values[np.searchsorted(cumulative, high + 1)]
        out[i] = value_low + (position - low) * (value_high - value_low)
    return out


#: Per-batch samples a :class:`LatencyRecorder` retains for percentiles
#: (64 KiB per recorder).  Totals are exact over the recorder's whole
#: life; only the p50/p99 population is windowed.
RECENT_BATCHES = 4096


class LatencyRecorder:
    """Accumulates batch timings in constant memory.

    Exact running totals (decisions, batches, wall seconds, non-default,
    refreshes, shed) plus a ring of the last :data:`RECENT_BATCHES`
    per-batch ``(size, seconds)`` samples, which is the population the
    latency percentiles are computed over.  The hot path is four adds and
    two array stores; neither memory nor :meth:`report` /
    :meth:`merged` cost grows with the number of requests served.

    With a metrics mirror bound (:meth:`bind_metrics`), the registry's
    well-known serving counters are fed from the same per-batch samples
    this recorder keeps -- but lazily: :meth:`sync_metrics` pushes the
    delta since the last sync, and runs from every cold path that reads
    the registry (:meth:`report`, :meth:`Telemetry.snapshot`,
    :meth:`Telemetry.expose_text`) and from :meth:`record` itself just
    before the ring would overwrite a sample the mirror has not seen.
    :meth:`ServingStats.from_registry` therefore cannot drift from
    :meth:`report` -- both views derive from the same samples.  Registry
    counters are monotonic: :meth:`reset` flushes pending deltas and
    clears only the recorder's own view, never the mirror.
    """

    def __init__(self, _capacity: int = RECENT_BATCHES) -> None:
        # Not a knob: only merged() passes it, to fit the windows it pools.
        self._capacity = _capacity
        self._sizes = np.zeros(_capacity, dtype=np.int64)
        self._seconds = np.zeros(_capacity, dtype=float)
        self._metrics: Optional[ServingMetrics] = None
        self._clear()

    def _clear(self) -> None:
        self._batches = 0
        self._decisions = 0
        self._wall_seconds = 0.0
        self._non_default = 0
        self._refreshes = 0
        self._shed = 0
        # Ring state: _held samples are live, the next one lands at _head.
        self._head = 0
        self._held = 0
        # Sync watermarks: how much has already been pushed into the
        # bound mirror.
        self._synced_batches = 0
        self._synced_non_default = 0
        self._synced_refreshes = 0
        self._synced_shed = 0

    def _recent(self, count: int):
        """The last ``count`` (<= held) samples, oldest first."""
        stop = self._head
        start = stop - count
        if start >= 0:
            return self._sizes[start:stop], self._seconds[start:stop]
        return (
            np.concatenate((self._sizes[start:], self._sizes[:stop])),
            np.concatenate((self._seconds[start:], self._seconds[:stop])),
        )

    def bind_metrics(self, metrics: ServingMetrics) -> None:
        """Mirror this recorder's samples into the registry's serving counters.

        Once bound, the registry is the mutation authority for the shared
        counters: external callers must go through the owning service's
        blessed hooks (e.g. :meth:`ServingService.record_shed`) instead of
        mutating this recorder directly.  On the *first* bind the
        watermarks skip any pre-bind history (the registry mirrors what
        happened under its watch); a rebind (the shard rebuilding its
        service around the same recorder) keeps the watermarks so nothing
        is double-counted or lost.
        """
        first = self._metrics is None
        self._metrics = metrics
        if first:
            self._synced_batches = self._batches
            self._synced_non_default = self._non_default
            self._synced_refreshes = self._refreshes
            self._synced_shed = self._shed

    def sync_metrics(self) -> None:
        """Push samples recorded since the last sync into the mirror."""
        m = self._metrics
        if m is None:
            return
        pending = self._batches - self._synced_batches
        if pending:
            self._synced_batches = self._batches
            sizes, seconds = self._recent(pending)
            m.batches.inc(pending)
            m.wall_seconds.inc(float(seconds.sum()))
            decisions = int(sizes.sum())
            if decisions:
                m.decisions.inc(decisions)
                hist = m.batch_seconds
                for size, secs in zip(sizes.tolist(), seconds.tolist()):
                    if size:
                        # One weighted observe per batch: every decision is
                        # charged the batch's amortised latency, matching
                        # report()'s per-decision percentile population.
                        hist.observe(secs / size, size)
        non_default = self._non_default - self._synced_non_default
        if non_default:
            m.non_default.inc(non_default)
            self._synced_non_default = self._non_default
        refreshes = self._refreshes - self._synced_refreshes
        if refreshes:
            m.refreshes.inc(refreshes)
            self._synced_refreshes = self._refreshes
        shed = self._shed - self._synced_shed
        if shed:
            m.shed.inc(shed)
            self._synced_shed = self._shed

    def record(self, batch_size: int, seconds: float, non_default: int) -> None:
        """Log one served batch."""
        if (
            self._metrics is not None
            and self._batches - self._synced_batches == self._capacity
        ):
            # The slot about to be reused holds the oldest sample the
            # mirror has not seen yet: drain first, lose nothing.
            self.sync_metrics()
        head = self._head
        self._sizes[head] = batch_size
        self._seconds[head] = seconds
        self._head = (head + 1) % self._capacity
        if self._held < self._capacity:
            self._held += 1
        self._batches += 1
        self._decisions += int(batch_size)
        self._wall_seconds += float(seconds)
        self._non_default += int(non_default)

    def record_refresh(self) -> None:
        """Log one model/cache refresh."""
        self._refreshes += 1

    def record_shed(self, count: int = 1, _blessed: bool = False) -> None:
        """Log arrivals degraded to default plans by admission control.

        .. deprecated::
            Calling this directly while a registry mirror is bound.  The
            registry is then the mutation authority; use
            :meth:`ServingService.record_shed` /
            :meth:`ServingCluster.record_shed` instead (they stay
            mirrored and keep ``from_registry`` consistent).
        """
        if self._metrics is not None and not _blessed:
            warnings.warn(
                "mutating LatencyRecorder counters directly is deprecated "
                "once a metrics registry mirror is bound; call "
                "ServingService.record_shed / ServingCluster.record_shed "
                "instead",
                DeprecationWarning,
                stacklevel=2,
            )
        self._shed += int(count)

    def report(self) -> ServingStats:
        """Fold the accumulated timings into a :class:`ServingStats`.

        Counters are exact totals; ``p50_latency_s`` / ``p99_latency_s``
        are exact percentiles of the retained window (the whole history
        until it exceeds :data:`RECENT_BATCHES` batches).
        """
        self.sync_metrics()
        decisions = self._decisions
        wall = self._wall_seconds
        # Each decision in a batch experiences the batch's amortised latency,
        # so the percentiles are over a weighted population (one value per
        # batch, weighted by its size) -- computed without materialising the
        # O(decisions) expanded array.
        sizes, seconds = self._sizes[: self._held], self._seconds[: self._held]
        nonempty = sizes > 0
        sizes = sizes[nonempty]
        if sizes.size:
            p50, p99 = _weighted_percentiles(
                seconds[nonempty] / sizes, sizes, [50.0, 99.0]
            )
        else:
            p50 = p99 = 0.0
        if wall > 0:
            throughput = decisions / wall
        else:
            throughput = 0.0 if decisions == 0 else float("inf")
        return ServingStats(
            decisions=decisions,
            batches=self._batches,
            wall_seconds=wall,
            throughput_qps=throughput,
            p50_latency_s=float(p50),
            p99_latency_s=float(p99),
            non_default_fraction=(
                self._non_default / decisions if decisions else 0.0
            ),
            refreshes=self._refreshes,
            shed=self._shed,
        )

    def reset(self) -> None:
        """Drop all accumulated timings (refresh and shed counts included).

        Pending deltas are flushed to the mirror first, so a reset never
        loses registry counts -- the registry stays monotonic while the
        recorder's own view restarts from zero.
        """
        self.sync_metrics()
        self._clear()

    @classmethod
    def merged(cls, recorders: Sequence["LatencyRecorder"]) -> "LatencyRecorder":
        """Pool many recorders into a fresh one: totals add, windows join.

        Unlike :meth:`ServingStats.merge`, the pooled recorder's
        :meth:`report` computes its percentiles over every part's
        retained samples (exactly the global percentiles while no part
        has wrapped) -- this is what the cluster aggregator uses when it
        holds every shard in-process.  The pooled ring is sized to hold
        all of them, so the cost is bounded by the number of parts, not
        by how much they have served.
        """
        windows = [r._recent(r._held) for r in recorders]
        held = sum(len(sizes) for sizes, _ in windows)
        pooled = cls(_capacity=max(held, RECENT_BATCHES))
        if held:
            pooled._sizes[:held] = np.concatenate([w[0] for w in windows])
            pooled._seconds[:held] = np.concatenate([w[1] for w in windows])
            pooled._held = held
            pooled._head = held % pooled._capacity
        for recorder in recorders:
            pooled._batches += recorder._batches
            pooled._decisions += recorder._decisions
            pooled._wall_seconds += recorder._wall_seconds
            pooled._non_default += recorder._non_default
            pooled._refreshes += recorder._refreshes
            pooled._shed += recorder._shed
        return pooled
