"""Background asyncio tasks: the caller-driven cadences, promoted.

Until now every deployment had to drive the control loops itself: the
adaptation controller's :meth:`~repro.adaptive.ClusterAdaptationController.tick`
and the cluster's :meth:`~repro.cluster.ServingCluster.tick` (the
:class:`~repro.cluster.scheduler.RefreshScheduler`) only ran when some
caller remembered to call them between serve batches.  Under an asyncio
front door there is a natural place for that cadence to live instead:
the event loop.  :class:`PeriodicTicker` hosts one sync tick callable as
a long-running task that fires every ``interval_s`` of loop time.

Ticks run *on* the loop, not in a thread: the serving stack is built on
shared numpy state with no locks, and interleaving a tick's matrix writes
(re-exploration) or a shard's warm ALS refresh with a serve batch on
another thread would race.  On the loop, a tick serialises with flushes
-- it can delay the next batch by its own duration, but it can never
corrupt state, and the heavy work is bounded per tick (a budgeted
response, one shard's warm refresh).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from ..errors import IngressError


def _consume_task_result(task: "asyncio.Task") -> None:
    """Retrieve a finished task's outcome so asyncio never warns about it."""
    if task.cancelled():
        return
    task.exception()


class PeriodicTicker:
    """Runs ``fn()`` every ``interval_s`` as a background asyncio task."""

    def __init__(
        self, fn: Callable[[], Any], interval_s: float, name: str = "tick"
    ) -> None:
        if interval_s <= 0:
            raise IngressError(f"interval_s must be > 0, got {interval_s}")
        self.fn = fn
        self.interval_s = float(interval_s)
        self.name = str(name)
        self.runs = 0
        self.errors = 0
        self.last_error: Optional[BaseException] = None
        self._task: Optional[asyncio.Task] = None

    @property
    def running(self) -> bool:
        """True while the background task is live."""
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Spawn the background task on the running event loop."""
        if self.running:
            raise IngressError(f"ticker {self.name!r} is already running")
        if self._task is not None:
            # A previous run finished (cancelled or crashed); make sure its
            # outcome is consumed so asyncio never logs "exception was
            # never retrieved" for a ticker we knowingly replaced.
            _consume_task_result(self._task)
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError as exc:
            raise IngressError(
                f"ticker {self.name!r} must be started from a running "
                "event loop"
            ) from exc
        self._task = loop.create_task(
            self._run(), name=f"repro-ticker-{self.name}"
        )

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            try:
                self.fn()
                self.runs += 1
            except asyncio.CancelledError:  # pragma: no cover - defensive
                raise
            except Exception as exc:
                # A failing control loop must never kill the front door:
                # serving without adaptation/refresh is degraded, serving
                # stopped is an outage.  The error is kept for telemetry.
                self.errors += 1
                self.last_error = exc

    async def stop(self) -> None:
        """Cancel the background task and wait for it to unwind.

        Safe to call at any point of the loop's life: a never-started or
        already-stopped ticker is a no-op, a task that already finished
        has its outcome consumed (so asyncio debug mode never warns about
        an unretrieved exception), and a live task is cancelled and
        awaited so nothing is left pending when the loop closes.
        """
        task, self._task = self._task, None
        if task is None:
            return
        if task.done():
            _consume_task_result(task)
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return (
            f"PeriodicTicker({self.name!r}, every {self.interval_s}s, "
            f"{self.runs} runs, {state})"
        )
