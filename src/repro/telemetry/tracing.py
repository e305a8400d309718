"""Request tracing with per-stage histograms.

A :class:`Trace` is one request's journey through the stack
(``ingress.queue_wait -> ingress.flush -> router.split -> shard.serve ->
cache.lookup -> observe / censor / wal.append``).  The tracer decides when a
stage records (:data:`STAGES`) and reads the one ``perf_counter`` pair it costs
(:meth:`Tracer.begin` / :meth:`Tracer.end`); a component with telemetry
off holds :data:`OFF`, whose calls do nothing.

The tracer keeps a **current-trace slot** instead of threading trace
objects through every signature.  The serving stack runs one request at
a time per event-loop frame (ingress drains coalesced batches
sequentially; the cluster fans out synchronously), so a plain attribute
is race-free here -- no contextvars, no locks.

Finished traces whose total duration is at least :data:`SLOW_TRACE_SECONDS`
enter a ring buffer of the :data:`TRACE_RING` most recent; when full, the
oldest trace is evicted.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional, Tuple

from .registry import MetricsRegistry

#: Admission threshold of the trace ring (seconds).  At 0.0 every finished
#: trace is admitted -- "recent traces" -- which is what the demo's
#: top-5-slowest listing reads.
SLOW_TRACE_SECONDS = 0.0
#: How many admitted traces the ring keeps: the bound on its memory.
TRACE_RING = 64

#: The only stage that precedes its trace root instead of nesting in it.
QUEUE_WAIT = "ingress.queue_wait"

#: When each stage records, in pipeline order: True only inside an open
#: request trace (a raw ``serve_batch``'s recorder already feeds
#: ``repro_batch_seconds``), False whenever telemetry is on.
STAGES = {
    QUEUE_WAIT: True,
    "ingress.flush": True,
    "router.split": False,
    "shard.serve": True,
    "cache.lookup": True,
    "observe": False,
    "censor": False,
    "wal.append": False,
}


class Trace:
    """One request's recorded stages: ``(stage, seconds)`` in call order."""

    __slots__ = ("name", "stages", "batch_size")

    def __init__(self, name: str, batch_size: int = 0) -> None:
        self.name = name
        self.batch_size = int(batch_size)
        self.stages: List[Tuple[str, float]] = []

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stages.append((stage, float(seconds)))

    @property
    def total_seconds(self) -> float:
        """Sum of top-level stage durations.

        Nested stages (``cache.lookup`` inside ``shard.serve``) would be
        double-counted by a plain sum, so the total is taken from the
        single largest recorded stage when one stage dominates; in this
        stack the root stage (``ingress.flush`` or ``shard.serve``)
        always encloses the others, making max() the enclosing duration.
        The one stage nothing encloses is the coalescer wait, which ends
        where the flush begins -- it is added on top.
        """
        waited = enclosing = 0.0
        for name, seconds in self.stages:
            if name == QUEUE_WAIT:
                waited += seconds
            elif seconds > enclosing:
                enclosing = seconds
        return waited + enclosing

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "batch_size": self.batch_size,
            "total_seconds": self.total_seconds,
            "stages": [
                {"stage": stage, "seconds": seconds}
                for stage, seconds in self.stages
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{s}={t:.2e}" for s, t in self.stages)
        return f"Trace({self.name!r}, {inner})"


class Tracer:
    """Builds traces, feeds stage histograms, keeps a slow-trace ring.

    ``start(...)`` opens a trace and makes it current; ``begin`` / ``end``
    time a stage, ``record_stage`` takes a measured one, and either feeds
    the histogram and the open trace as :data:`STAGES` says; ``finish()``
    closes the current trace and admits it to the ring when slow enough.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._stage_seconds = registry.histogram(
            "repro_stage_seconds",
            "Per-stage request latency across the serving pipeline.",
            labels=("stage",),
        )
        # Per-stage children resolved once: record_stage runs on the serve
        # hot path, and labels() pays a tuple-of-str build per call.
        self._stage_children: Dict[str, Any] = {}
        self._ring: Deque[Trace] = deque(maxlen=TRACE_RING)
        self._current: Optional[Trace] = None
        self.dropped_traces = 0
        self.finished_traces = 0

    # -- trace lifecycle ----------------------------------------------------
    def start(self, name: str, batch_size: int = 0) -> Trace:
        """Open a new trace and make it the current one."""
        trace = Trace(name, batch_size=batch_size)
        self._current = trace
        return trace

    def begin(self, stage: str) -> Optional[float]:
        """The clock reading :meth:`end` takes, or None (no clock read) when
        ``stage`` does not record now."""
        if STAGES[stage] and self._current is None:
            return None
        return perf_counter()

    def end(self, stage: str, start: Optional[float]) -> None:
        """Record ``stage`` as running from :meth:`begin`'s ``start`` to now."""
        if start is not None:
            self.record_stage(stage, perf_counter() - start)

    def record_stage(self, stage: str, seconds: float) -> None:
        """Attribute a measured duration to ``stage`` when it records now;
        a clock that stepped back counts 0 s (as ``LatencyRecorder`` does)."""
        trace = self._current
        if trace is None and STAGES[stage]:
            return
        child = self._stage_children.get(stage)
        if child is None:
            child = self._stage_children[stage] = self._stage_seconds.labels(stage)
        seconds = max(seconds, 0.0)
        child.observe(seconds)
        if trace is not None:
            trace.add_stage(stage, seconds)

    def finish(self) -> Optional[Trace]:
        """Close the current trace; ring-admit it when slow enough."""
        trace = self._current
        if trace is None:
            return None
        self._current = None
        self.finished_traces += 1
        if trace.total_seconds >= SLOW_TRACE_SECONDS:
            if len(self._ring) == self._ring.maxlen:
                self.dropped_traces += 1
            self._ring.append(trace)
        return trace

    def abandon(self) -> None:
        """Drop the current trace without recording it (error paths)."""
        self._current = None

    def slowest(self, n: int = 5) -> List[Trace]:
        """The ``n`` slowest retained traces, slowest first."""
        return sorted(
            self._ring, key=lambda t: t.total_seconds, reverse=True
        )[: max(0, int(n))]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "finished_traces": self.finished_traces,
            "dropped_traces": self.dropped_traces,
            "slow_trace_seconds": SLOW_TRACE_SECONDS,
            "ring": [t.as_dict() for t in self._ring],
        }


class _OffTracer:
    """The tracer of a component with telemetry off: no clock, no allocation."""

    __slots__ = ()

    def _skip(self, _stage=None, _value=None) -> None:
        """Every call does nothing."""

    begin = end = record_stage = start = finish = abandon = _skip


#: What components built with ``telemetry=None`` hold in place of a tracer.
OFF = _OffTracer()
