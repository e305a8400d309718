"""Serving-side telemetry: throughput, decision-latency percentiles, hit rate.

A production hint-recommendation service lives or dies by two numbers: how
many decisions per second it sustains, and how long a single arrival waits
for its decision.  The totals live in the metrics registry's serving cells
(:class:`~repro.telemetry.ServingMetrics`) and nowhere else;
:class:`LatencyRecorder` writes them per batch and keeps a fixed window of
recent samples beside them (so a service that never restarts never grows);
:class:`ServingStats` is the immutable report read back on demand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..telemetry.runtime import ServingMetrics

#: The serving totals a :class:`LatencyRecorder` counts, by
#: :class:`ServingMetrics` attribute.
_TOTALS = (
    "decisions", "batches", "wall_seconds", "non_default", "refreshes",
    "refresh_failures", "shed",
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
    refreshes / refresh_failures:
        Background ALS refreshes a cluster shard ran, and those that failed
        (:meth:`ClusterShard.refresh <repro.cluster.shard.ClusterShard.refresh>`);
        a lone service runs none.
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
    refresh_failures: int = 0
    shed: int = 0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Plain dictionary for dashboards and log lines.

        Counters (``decisions``, ``batches``, ``refreshes``) stay integers;
        only the genuinely continuous fields are floats.
        """
        return dataclasses.asdict(self)

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


def checked_shed_count(count, error) -> int:
    """Validate a shed count where it enters the stack, raising ``error``.

    Only a non-negative ``int`` / ``numpy.integer`` is a count: ``True``,
    ``2.5`` and ``-3`` become the front door's typed error instead of a
    decrement or a failure from inside the counter.
    """
    if (
        isinstance(count, bool)
        or not isinstance(count, (int, np.integer))
        or count < 0
    ):
        raise error(f"shed count must be a non-negative integer, got {count!r}")
    return int(count)


#: Per-batch samples a :class:`LatencyRecorder` retains for percentiles
#: (64 KiB per recorder).  Totals are exact over the recorder's whole
#: life; only the p50/p99 population is windowed.
RECENT_BATCHES = 4096


class LatencyRecorder:
    """Writes batch timings into the serving cells; reads them back as a view.

    The exact totals (``_TOTALS``) are the registry cells of ``metrics`` --
    this class holds no second copy.  What it owns is the *view*: a baseline of the
    cell values taken at construction and at :meth:`reset`, so
    :meth:`report` covers "since this recorder started" while the cells
    underneath stay monotonic, plus a ring of the last
    :data:`RECENT_BATCHES` per-batch ``(size, seconds)`` samples, the
    population the exact latency percentiles are computed over.  The hot
    path is four counter adds, one weighted histogram observe and two
    array stores; neither memory nor :meth:`report` / :meth:`merged` cost
    grows with the number of requests served.

    Parameters
    ----------
    metrics:
        The :class:`~repro.telemetry.ServingMetrics` bundle to count in
        (``telemetry.serving_metrics()`` for an exported one).  Without
        one the recorder counts on a private registry.  Stats are per
        shard label: two live recorders on one label share cells, so each
        one's report includes the other's traffic since its own baseline
        -- give services distinct ``Telemetry.labeled()`` views to keep
        them apart.
    """

    def __init__(
        self,
        metrics: Optional[ServingMetrics] = None,
        _capacity: int = RECENT_BATCHES,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServingMetrics()
        # Not a knob: only merged() passes it, to fit the windows it pools.
        self._capacity = _capacity
        self._sizes = np.zeros(_capacity, dtype=np.int64)
        self._seconds = np.zeros(_capacity, dtype=float)
        self.reset()

    def reset(self) -> None:
        """Restart this recorder's view from zero (refresh and shed counts
        included).  The registry cells are monotonic and keep their
        totals; only the baseline moves and the sample window empties."""
        self._baseline = [getattr(self.metrics, attr).value for attr in _TOTALS]
        # Ring state: _held samples are live, the next one lands at _head.
        self._head = 0
        self._held = 0

    def _totals(self):
        """Cell values since the baseline, in ``_TOTALS`` order."""
        return [
            getattr(self.metrics, attr).value - base
            for attr, base in zip(_TOTALS, self._baseline)
        ]

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

    def record(self, batch_size: int, seconds: float, non_default: int) -> None:
        """Log one served batch."""
        if seconds < 0.0:
            # A clock that stepped back: counters refuse negative adds, and
            # bookkeeping must never be what fails a served batch.
            seconds = 0.0
        m = self.metrics
        m.batches.inc()
        m.wall_seconds.inc(seconds)
        if batch_size:
            m.decisions.inc(batch_size)
            m.non_default.inc(non_default)
            # One weighted observe per batch: every decision is charged the
            # batch's amortised latency, matching report()'s per-decision
            # percentile population.
            m.batch_seconds.observe(seconds / batch_size, batch_size)
        head = self._head
        self._sizes[head] = batch_size
        self._seconds[head] = seconds
        self._head = (head + 1) % self._capacity
        if self._held < self._capacity:
            self._held += 1

    def record_refresh(self) -> None:
        """Log one model/cache refresh."""
        self.metrics.refreshes.inc()

    def record_shed(self, count: int = 1) -> None:
        """Log arrivals degraded to default plans by admission control.

        The count is validated where it enters the stack
        (:meth:`ServingService.record_shed`,
        :meth:`ServingCluster.record_shed`); here a negative one surfaces
        as the counter's :class:`~repro.errors.TelemetryError`.
        """
        self.metrics.shed.inc(count)

    def report(self) -> ServingStats:
        """Read the cells (minus the baseline) into a :class:`ServingStats`.

        Counters are exact totals; ``p50_latency_s`` / ``p99_latency_s``
        are exact percentiles of the retained window (the whole history
        until it exceeds :data:`RECENT_BATCHES` batches).
        """
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
        decisions, batches, wall, non_default, refreshes, failures, shed = self._totals()
        decisions = int(decisions)
        if wall > 0:
            throughput = decisions / wall
        else:
            throughput = 0.0 if decisions == 0 else float("inf")
        return ServingStats(
            decisions=decisions,
            batches=int(batches),
            wall_seconds=float(wall),
            throughput_qps=throughput,
            p50_latency_s=float(p50),
            p99_latency_s=float(p99),
            non_default_fraction=non_default / decisions if decisions else 0.0,
            refreshes=int(refreshes),
            refresh_failures=int(failures),
            shed=int(shed),
        )

    @classmethod
    def merged(cls, recorders: Sequence["LatencyRecorder"]) -> "LatencyRecorder":
        """Pool many recorders into a fresh one: totals add, windows join.

        The pooled recorder's :meth:`report` computes its percentiles over
        every part's retained samples (exactly the global percentiles while
        no part has wrapped) -- this is what the cluster aggregator uses
        when it holds every shard in-process.  The pooled ring is sized to hold
        all of them, so the cost is bounded by the number of parts, not
        by how much they have served.  The pooled recorder counts on a
        private registry of its own; the parts' cells are only read.
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
            for attr, total in zip(_TOTALS, recorder._totals()):
                getattr(pooled.metrics, attr).inc(total)
        return pooled
