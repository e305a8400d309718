"""The request coalescer's pure core: a batching state machine.

Coalescing is what makes the serving layer's batch wins free for
independent clients: PR 1 measured ~82x per-query throughput for batched
decisions over one-at-a-time lookups, but only for callers that hand the
service a pre-assembled batch.  :class:`CoalescerCore` assembles those
batches from single-request arrivals under two knobs:

* ``max_batch`` -- a flush fires as soon as this many requests are
  pending (the throughput knob);
* ``max_wait_s`` -- a flush fires when the *oldest* pending request has
  waited this long (the latency-SLO *cap*: no admitted request is ever
  delayed by coalescing for more than ``max_wait_s`` before its batch is
  handed to the backend).

Those are the two triggers the core can see for itself.  The shell adds
forced flushes for causes only it can see -- the event loop went quiet
(``idle``: nothing more is about to join, so waiting out the cap would
be pure delay) and shutdown -- and names the cause, so every batch is
counted under exactly one of :data:`FLUSH_REASONS`.

Admission control is a bounded queue: when ``queue_capacity`` requests
are already pending, new arrivals are *shed* -- :meth:`submit` returns
``None``, and the caller answers them with the default plan immediately.
The paper's no-regression guarantee is anchored on the default plan, so
load-shedding degrades latency upside, never correctness, and produces
no error responses.

The core is deliberately free of asyncio and wall clocks: callers pass
``now`` explicitly.  That keeps every timing property deterministic and
directly testable -- the hypothesis suite drives this class through
arbitrary interleavings with a fake clock and asserts the FIFO, routing,
and SLO invariants exactly.  :class:`~repro.ingress.ingress.ServiceIngress`
is the thin asyncio shell that wires it to futures and one per-pass
loop callback.

The queue is two parallel lists (payloads and submit times), not a deque
of per-request records: a flush is two slices, a ``del`` and three
C-level reductions over the time slice, with no interpreted per-request
loop.  Tokens number admitted requests in submit order; because batches
are FIFO prefixes, position in the queue *is* the token (offset by what
has already left), so the shell pairs answers with callers by position
(:meth:`CoalescerCore.take_payloads`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..config import IngressConfig
from ..errors import IngressError

#: Why a batch left the queue.  ``size`` and ``deadline`` are the core's
#: own triggers; ``idle`` and ``shutdown`` are the shell's forced flushes.
FLUSH_REASONS = ("size", "deadline", "idle", "shutdown")


class CoalescerCore:
    """Batching + admission state machine, driven by an explicit clock.

    The contract the asyncio shell (and the property tests) rely on:

    * :meth:`submit` admits a request (returning a unique monotonically
      increasing token) or sheds it (returning ``None``) -- admission is
      decided purely by the current queue depth;
    * admitted requests leave in FIFO order, each in exactly one batch of
      at most ``max_batch``;
    * :meth:`ready` becomes True no later than ``max_wait_s`` after the
      oldest pending request's submit time, so a shell that checks
      ``ready`` on every loop pass while requests are pending (and
      flushes whenever it holds) never queues a request past the bound
      by more than one pass;
    * every flushed batch is counted under one of :data:`FLUSH_REASONS`,
      so ``sum(flush_reasons.values()) == flushed_batches``.
    """

    def __init__(self, config: Optional[IngressConfig] = None) -> None:
        self.config = config or IngressConfig()
        # Parallel FIFO columns: _payloads[i] was submitted at _times[i]
        # and holds token flushed_requests + i.
        self._payloads: List[Any] = []
        self._times: List[float] = []
        # Telemetry (monotone counters, read by IngressStats).  What a
        # flush can count is counted there, once per batch, and left out
        # of submit: see ``submitted`` and ``max_queue_depth`` below.
        self.shed = 0
        self.flushed_batches = 0
        self.flushed_requests = 0
        self._deepest_flush = 0
        self.flush_reasons = dict.fromkeys(FLUSH_REASONS, 0)
        self._wait_seconds_total = 0.0
        self._max_wait_seen = 0.0
        #: Reason and mean queue wait of the most recently flushed batch
        #: (what the shell mirrors into its registry counter and records
        #: as the ``ingress.queue_wait`` trace stage).
        self.last_flush_reason: Optional[str] = None
        self.last_batch_wait_s = 0.0

    # -- admission ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently pending (admitted, not yet flushed)."""
        return len(self._payloads)

    def submit(self, payload: Any, now: float) -> Optional[int]:
        """Admit one request at time ``now``.

        Returns the request's token, or ``None`` when the bounded queue is
        full and the request must be shed to the default plan.
        """
        depth = len(self._payloads)
        if depth >= self.config.queue_capacity:
            self.shed += 1
            return None
        self._payloads.append(payload)
        self._times.append(float(now))
        # Admitted requests are numbered in order; those before this one
        # have either been flushed or are the ``depth`` ahead of it.
        return self.flushed_requests + depth

    # -- flush timing ------------------------------------------------------------
    def ready(self, now: float) -> bool:
        """True when a batch must be flushed at time ``now``."""
        if not self._times:
            return False
        if len(self._times) >= self.config.max_batch:
            return True
        return now >= self._times[0] + self.config.max_wait_s

    def take_payloads(
        self, now: float, force: bool = False, reason: str = "shutdown"
    ) -> List[Any]:
        """Pop the payloads of the next batch of up to ``max_batch``.

        Returns an empty list when no batch is due, unless ``force``,
        which drains regardless: the shell forces on shutdown and when
        the event loop goes idle, and says which through ``reason``.  A
        forced batch that was due anyway is counted under its own
        trigger.  The batch is the FIFO prefix of the queue, so a flush
        always serves the requests closest to their SLO bound first, and
        the i-th payload belongs to the i-th oldest pending submit.
        """
        if reason not in self.flush_reasons:
            raise IngressError(
                f"unknown flush reason {reason!r}; expected one of {FLUSH_REASONS}"
            )
        depth = len(self._payloads)
        if not depth:
            return []
        max_batch = self.config.max_batch
        if depth >= max_batch:
            due = "size"
        elif now >= self._times[0] + self.config.max_wait_s:
            due = "deadline"
        elif force:
            due = reason
        else:
            return []
        now = float(now)
        times = self._times[:max_batch]
        # Checked before anything leaves the queue: after a bad clock
        # reading every admitted request is still there for the next flush.
        if now < max(times):
            raise IngressError(
                f"clock went backwards: flush at {now} before submit at "
                f"{max(times)}"
            )
        payloads = self._payloads[:max_batch]
        del self._payloads[:max_batch], self._times[:max_batch]
        # The same floats the per-request loop produced: waits summed in
        # FIFO order from 0.0, and the longest wait is the oldest submit's.
        wait_total = sum(map(now.__sub__, times), 0.0)
        self._wait_seconds_total += wait_total
        self._max_wait_seen = max(self._max_wait_seen, now - min(times))
        self._deepest_flush = max(self._deepest_flush, depth)
        self.last_batch_wait_s = wait_total / len(payloads)
        self.flushed_batches += 1
        self.flushed_requests += len(payloads)
        self.flush_reasons[due] += 1
        self.last_flush_reason = due
        return payloads

    # -- telemetry ----------------------------------------------------------------
    @property
    def submitted(self) -> int:
        """Requests seen so far: flushed, pending or shed."""
        return self.flushed_requests + len(self._payloads) + self.shed

    @property
    def max_queue_depth(self) -> int:
        """Deepest the queue has been (it only shrinks at a flush)."""
        return max(self._deepest_flush, len(self._payloads))

    @property
    def mean_batch_size(self) -> float:
        """Average size of the batches flushed so far."""
        if self.flushed_batches == 0:
            return 0.0
        return self.flushed_requests / self.flushed_batches

    @property
    def mean_queue_wait_s(self) -> float:
        """Average time an admitted request spent waiting for its flush."""
        if self.flushed_requests == 0:
            return 0.0
        return self._wait_seconds_total / self.flushed_requests

    @property
    def max_queue_wait_s(self) -> float:
        """Longest time any flushed request spent in the queue."""
        return self._max_wait_seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoalescerCore(depth={self.queue_depth}, "
            f"submitted={self.submitted}, shed={self.shed}, "
            f"batches={self.flushed_batches}, "
            f"mean_batch={self.mean_batch_size:.1f})"
        )
