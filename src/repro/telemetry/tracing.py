"""Explicit-clock request tracing with per-stage histograms.

A :class:`Trace` is one request's journey through the stack
(``ingress.queue_wait -> ingress.flush -> router.split -> shard.serve ->
cache.lookup -> observe / wal.append``).  Stages are timed by the *caller*
with one ``perf_counter`` pair each -- the tracer never reads a clock
itself, so tracing adds no wall-clock calls beyond what the instrumented
component already pays.

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

#: Canonical stage names, in pipeline order.  Components are free to add
#: more, but these are the ones the docs and dashboards key on.
STAGES = (
    QUEUE_WAIT,
    "ingress.flush",
    "router.split",
    "shard.serve",
    "cache.lookup",
    "observe",
    "wal.append",
)


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

    ``start(...)`` opens a trace and makes it current; ``record_stage``
    attributes a caller-measured duration to the current trace (or to
    the histograms only, when no trace is open -- e.g. a direct
    ``serve_batch`` call outside ingress); ``finish()`` closes the
    current trace and admits it to the ring when slow enough.
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

    @property
    def current(self) -> Optional[Trace]:
        return self._current

    def record_stage(
        self, stage: str, seconds: float, weight: int = 1
    ) -> None:
        """Attribute a caller-measured duration to ``stage``.

        Feeds the per-stage histogram always; appends to the current
        trace when one is open.  ``weight`` charges the histogram with
        that many occurrences (batch-amortised observes).
        """
        child = self._stage_children.get(stage)
        if child is None:
            child = self._stage_seconds.labels(stage)
            self._stage_children[stage] = child
        child.observe(seconds, weight)
        if self._current is not None:
            self._current.add_stage(stage, seconds)

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

    # -- inspection ---------------------------------------------------------
    def slow_traces(self) -> List[Trace]:
        """Ring contents, oldest first."""
        return list(self._ring)

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
