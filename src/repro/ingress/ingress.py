"""The asyncio front door: single-request awaits, batched execution.

:class:`ServiceIngress` (over a :class:`~repro.serving.ServingService`)
and :class:`ClusterIngress` (over a :class:`~repro.cluster.ServingCluster`)
give every independent client the same one-line interface::

    async with ServiceIngress(service) as ingress:
        decision = await ingress.serve(query)

Under the hood, concurrent ``serve`` calls land in a
:class:`~repro.ingress.coalescer.CoalescerCore` bounded queue and are
flushed to the backend as one vectorised batch -- when ``max_batch``
requests are pending, when the event loop goes quiet (a whole loop pass
brought no new arrival, so nothing more is about to join), or when the
oldest has waited ``max_wait_s`` (whichever first).  ``max_wait_s`` is
therefore the *cap* on coalescing delay under a sustained trickle of
arrivals, not a floor every sparse request waits out.  Each caller's
await resolves with exactly the decision the synchronous batch path
would have produced for its query: coalescing changes *when* the
snapshot lookup happens, never *what* it returns, so decisions are
byte-identical to sync serving (asserted against scenario-engine traffic
in ``benchmarks/test_ingress_load.py`` and ``tests/test_ingress.py``).
A request costs one coroutine frame, one plain call, one core ``submit``
and one future; callers and answers are matched by FIFO position, with no
token-keyed table in between (:class:`_BaseIngress` says what keeps that
safe, ``tests/test_ingress_pairing.py`` checks it).

Overflow past ``queue_capacity`` is shed, not errored: the arrival is
answered immediately with the default plan -- the anchor of the paper's
no-regression guarantee -- and counted in the backend's stats
(``ServingStats.shed`` / ``ClusterStats.shed_decisions``).

:class:`ClusterIngress` also *hosts* the control loops that previously
relied on caller-driven cadence: the refresh scheduler's tick and, when a
:class:`~repro.adaptive.ClusterAdaptationController` is given, its
detection tick run as background asyncio tasks
(:class:`~repro.ingress.background.PeriodicTicker`) for as long as the
ingress is started, and measured latencies reach that controller through
:meth:`ClusterIngress.record_measured`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cluster.cluster import ServingCluster
from ..config import IngressConfig
from ..core.plan_cache import DEFAULT_HINT
from ..errors import IngressError
from ..serving.batch_cache import BatchDecisions
from ..serving.service import ServingService
from ..telemetry.runtime import INGRESS_FLUSHES_TOTAL
from ..telemetry.registry import MetricsRegistry
from ..telemetry.tracing import OFF, QUEUE_WAIT
from .background import PeriodicTicker
from .coalescer import FLUSH_REASONS, CoalescerCore


class IngressDecision(NamedTuple):
    """One arrival's answer, as the async caller receives it.

    ``tenant`` is ``None`` for single-service ingress.  ``shed`` marks
    decisions produced by admission control instead of the decision
    arrays; shed answers always carry the default plan with an unknown
    (infinite) expected latency.
    """

    tenant: Optional[str]
    query: int
    hint: int
    used_default: bool
    expected_latency: float
    shed: bool = False


@dataclass(frozen=True)
class IngressStats:
    """Point-in-time report over everything the front door has seen."""

    submitted: int
    served: int
    shed: int
    queue_depth: int
    flushed_batches: int
    mean_batch_size: float
    max_queue_depth: int
    mean_queue_wait_s: float
    max_queue_wait_s: float
    flush_reasons: Dict[str, int]
    background_ticks: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        """Plain dictionary for dashboards and benchmark JSON."""
        return {
            "submitted": int(self.submitted),
            "served": int(self.served),
            "shed": int(self.shed),
            "queue_depth": int(self.queue_depth),
            "flushed_batches": int(self.flushed_batches),
            "mean_batch_size": float(self.mean_batch_size),
            "max_queue_depth": int(self.max_queue_depth),
            "mean_queue_wait_s": float(self.mean_queue_wait_s),
            "max_queue_wait_s": float(self.max_queue_wait_s),
            "flush_reasons": dict(self.flush_reasons),
            "background_ticks": dict(self.background_ticks),
        }

    def __str__(self) -> str:
        return (
            f"IngressStats({self.submitted} submitted, {self.served} served, "
            f"{self.shed} shed, mean_batch={self.mean_batch_size:.1f}, "
            f"max_depth={self.max_queue_depth}, "
            f"max_wait={self.max_queue_wait_s * 1e3:.2f}ms)"
        )


def _query_index(query: Any, n_queries: int, tenant: Optional[str] = None) -> int:
    """Validate an arrival's query id that is not a plain in-range ``int``.

    Only integral ``int`` / ``numpy.integer`` values are query ids;
    ``int()`` would let ``"3"``, ``1.9`` and ``True`` through as someone
    else's query and turn ``nan`` / ``inf`` / ``None`` into untyped
    errors.  ``serve`` tests the common case itself (a type identity and
    two comparisons) and only comes here on the way to a numpy integer
    or an error.
    """
    where = "" if tenant is None else f" for tenant {tenant!r}"
    if isinstance(query, bool) or not isinstance(query, (int, np.integer)):
        raise IngressError(f"query index must be an integer, got {query!r}{where}")
    if not 0 <= query < n_queries:
        raise IngressError(
            f"query index {query} out of range [0, {n_queries}){where}"
        )
    return int(query)


def _decisions(tenants: Iterable, queries: Iterable, batch: BatchDecisions) -> list:
    """One :class:`IngressDecision` per arrival, without a Python call each.

    One ``.tolist()`` per array (repeated numpy scalar extraction is an
    order of magnitude slower), one ``zip`` across the columns, and
    ``tuple.__new__`` in place of the named tuple's generated ``__new__``,
    which is a Python function and would cost a frame per request.
    """
    return list(
        map(
            tuple.__new__,
            repeat(IngressDecision),
            zip(
                tenants,
                queries,
                batch.hints.tolist(),
                batch.used_default.tolist(),
                batch.expected_latency.tolist(),
                repeat(False),
            ),
        )
    )


def _measured_batches(decisions: Sequence[IngressDecision], measured) -> list:
    """``(tenant, BatchDecisions, measurements)`` per tenant among ``decisions``.

    Shed decisions are skipped: they never consulted the snapshot, so
    there is no expected latency to compute a residual against.
    """
    measured = np.asarray(measured, dtype=float)
    if measured.shape != (len(decisions),):
        raise IngressError("record_measured needs one measurement per decision")
    by_tenant: Dict[Optional[str], List[int]] = {}
    for i, decision in enumerate(decisions):
        if not decision.shed:
            by_tenant.setdefault(decision.tenant, []).append(i)
    batches = []
    for tenant, positions in by_tenant.items():
        _, queries, hints, used, expected, _ = zip(*(decisions[i] for i in positions))
        batch = BatchDecisions(
            queries=np.asarray(queries, dtype=np.int64),
            hints=np.asarray(hints, dtype=np.int64),
            used_default=np.asarray(used, dtype=bool),
            expected_latency=np.asarray(expected, dtype=float),
        )
        batches.append((tenant, batch, measured[positions]))
    return batches


class _BaseIngress:
    """Shared coalescing/flush/lifecycle machinery of both front doors.

    Everything runs on one event loop: submits, flushes, and background
    ticks interleave but never overlap, so the (lock-free, numpy-backed)
    serving stack underneath is only ever touched from one frame at a
    time.  Dispatch is deliberately *deferred* (a ``call_soon`` callback,
    never an inline flush): every submit already runnable in the current
    loop iteration joins -- or overflows -- the queue before any batch
    is cut, which is what makes both coalescing and bounded-queue
    admission control real under a burst of concurrent callers.

    An admitted request costs one coroutine frame (the subclass's
    ``serve``), one plain call (:meth:`_admit`), one core ``submit`` and
    one future.  Futures wait in a FIFO list parallel to the core's
    queue, so a flush pairs the k payloads it takes with the k oldest
    waiters *by position*: nothing is keyed, nothing is re-packed, and a
    caller that gave up while queued (its future is done) keeps its slot
    so that nobody behind it shifts.

    Three things cut a batch, and one callback checks all three: the
    probe (:meth:`_probe`).  While requests are pending it rides along
    with the loop, one ``call_soon`` per pass, and on each pass flushes
    what the core says is due -- ``max_batch`` pending, or the oldest past
    ``max_wait_s`` -- and everything else the first time a whole pass
    brings no new arrival.  Callers woken by the same flush resubmit in
    the same pass, so closed-loop clients still leave as one batch, and
    no batch arms a timer for a lookup that costs microseconds.
    """

    def __init__(self, telemetry, config, clock) -> None:
        self.config = config or IngressConfig()
        self._clock = clock
        self._core = CoalescerCore(self.config)
        # One future per pending request, in the core's FIFO order.
        self._waiters: List[asyncio.Future] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._probe_scheduled = False
        self._probe_seen = 0
        self.tickers: List[PeriodicTicker] = []
        # The backend's context; with None the flush path is untraced and
        # counts on a registry nobody exports.
        self._tracer = OFF if telemetry is None else telemetry.tracer
        registry = MetricsRegistry() if telemetry is None else telemetry.registry
        family = registry.counter(
            INGRESS_FLUSHES_TOTAL,
            "Coalesced batches flushed, by what cut them.",
            labels=("reason",),
        )
        self._flush_counters = {r: family.labels(r) for r in FLUSH_REASONS}

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and spawn the background control tasks."""
        if self._started:
            raise IngressError("ingress is already started")
        self._loop = asyncio.get_running_loop()
        self._started = True
        for ticker in self.tickers:
            ticker.start()

    async def stop(self) -> None:
        """Drain pending requests, then stop the background tasks.

        Every admitted request is still answered (force-flushed through
        the backend in FIFO batches); nothing is dropped on shutdown.
        """
        if not self._started:
            return
        while self._core.queue_depth:
            self._flush_one(self._clock(), "shutdown")
        for ticker in self.tickers:
            await ticker.stop()
        self._started = False

    async def __aenter__(self) -> "_BaseIngress":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- the request path ---------------------------------------------------------
    def _admit(self, payload: Any) -> "asyncio.Future[IngressDecision]":
        """Queue one validated payload; its answer arrives on the future.

        A plain function, so ``serve`` is the only coroutine frame a
        request pays for.  It cuts nothing: it queues the waiter and makes
        sure the probe is scheduled, which decides every cut.
        """
        if not self._started:
            raise IngressError("ingress is not started (use 'async with' or start())")
        future = self._loop.create_future()
        if self._core.submit(payload, self._clock()) is None:
            # Admission control: full queue -> immediate default-plan
            # answer.  No queueing, no backend work, no error.
            self._record_shed(1)
            future.set_result(self._shed_decision(payload))
            return future
        self._waiters.append(future)
        if not self._probe_scheduled:
            # On the *next* loop pass, not inline: every submit already
            # runnable in this one joins (or overflows) the queue first.
            self._probe_scheduled = True
            self._loop.call_soon(self._probe)
        return future

    async def serve_many(self, payloads: Sequence[Any]) -> List[IngressDecision]:
        """Submit many independent requests concurrently; gather in order.

        Equivalent to ``asyncio.gather`` over per-payload :meth:`serve`
        calls (same admission, same batches, same answers) without a
        coroutine frame per request -- except that every payload is
        checked before the first is admitted, so a bad vector raises
        :class:`IngressError` having queued and shed nothing.
        """
        checked = list(map(self._checked, payloads))
        futures = list(map(self._admit, checked))
        return [await future for future in futures]

    # -- flush machinery ----------------------------------------------------------
    def _probe(self) -> None:
        """Cut every batch that is due, once per loop pass while any is pending.

        Scheduled by the first submit into an empty queue.  Each pass it
        reads the clock once and flushes what the core says is due (a full
        batch, or one whose oldest request has waited ``max_wait_s``).  If
        anything arrived since its last pass it re-arms for the next one
        (shed arrivals count: a burst is not quiet; so does the submit that
        scheduled it, which is why ``_probe_seen`` is left alone there).
        The first pass that saw none means every caller that was going to
        join this batch has -- the rest are waiting on us -- so it flushes
        the rest as ``idle`` and retires: an idle ingress schedules nothing.
        Under a sustained trickle it never sees a quiet pass, and the
        deadline check cuts the batch within a pass of the cap.

        A clock that went backwards makes the flush raise with every
        request still queued; one retry ``max_wait_s`` later keeps them
        from being stranded, and the loop's handler sees the error once.
        """
        core = self._core
        now = self._clock()
        try:
            while core.ready(now):
                self._flush_one(now)
            if core.queue_depth and core.submitted != self._probe_seen:
                self._probe_seen = core.submitted
                self._loop.call_soon(self._probe)
                return
            while core.queue_depth:
                self._flush_one(now, "idle")
        except IngressError:
            self._loop.call_later(self.config.max_wait_s, self._probe)
            raise
        self._probe_scheduled = False

    def _flush_one(self, now: float, force_reason: Optional[str] = None) -> None:
        if force_reason is None:
            payloads = self._core.take_payloads(now)
        else:
            payloads = self._core.take_payloads(now, True, force_reason)
        if not payloads:
            return
        # FIFO on both sides: the oldest waiters are these payloads'
        # callers, in order.
        waiters = self._waiters[: len(payloads)]
        del self._waiters[: len(payloads)]
        self._flush_counters[self._core.last_flush_reason].inc()
        # The trace root: inner stages (router.split, shard.serve,
        # cache.lookup) recorded during _serve_payloads attach to it.
        # The wait that preceded the flush goes first: it is the stage
        # that dominates a request whenever batches do not fill, and no
        # perf_counter pair can see it from in here.
        tracer = self._tracer
        tracer.start("ingress.flush", len(payloads))
        tracer.record_stage(QUEUE_WAIT, self._core.last_batch_wait_s)
        flush_start = tracer.begin("ingress.flush")
        try:
            results = self._serve_payloads(payloads)
        except Exception as exc:
            # Payloads are validated before admission, and a DOWN shard's
            # rows get default plans without an error -- so this is a
            # genuine bug or resource failure (an UP shard's error comes
            # through unchanged).  Every caller in the batch gets the
            # exception; later batches are isolated.
            tracer.abandon()
            for future in waiters:
                if not future.done():
                    future.set_exception(exc)
        else:
            tracer.end("ingress.flush", flush_start)
            tracer.finish()
            # done(): a caller cancelled while queued (wait_for timed
            # out) was still served; there is just nobody to tell.
            for future, decision in zip(waiters, results):
                if not future.done():
                    future.set_result(decision)

    # -- subclass hooks -----------------------------------------------------------
    def _checked(self, payload: Any) -> Any:
        """The payload as the backend takes it, or :class:`IngressError`.

        The front door's one payload check: nothing that fails it is ever
        admitted, so a coalesced batch cannot fail on one caller's input.
        """
        raise NotImplementedError

    def _serve_payloads(self, payloads: List[Any]) -> List[IngressDecision]:
        raise NotImplementedError

    def _shed_decision(self, payload: Any) -> IngressDecision:
        raise NotImplementedError

    def _record_shed(self, count: int) -> None:
        raise NotImplementedError

    # -- telemetry ----------------------------------------------------------------
    def stats(self) -> IngressStats:
        """Coalescing/admission report (backend stats live on the backend)."""
        core = self._core
        return IngressStats(
            submitted=core.submitted,
            served=core.flushed_requests,
            shed=core.shed,
            queue_depth=core.queue_depth,
            flushed_batches=core.flushed_batches,
            mean_batch_size=core.mean_batch_size,
            max_queue_depth=core.max_queue_depth,
            mean_queue_wait_s=core.mean_queue_wait_s,
            max_queue_wait_s=core.max_queue_wait_s,
            flush_reasons=dict(core.flush_reasons),
            background_ticks={t.name: t.runs for t in self.tickers},
        )


class ServiceIngress(_BaseIngress):
    """Asyncio front door over a single :class:`ServingService`.

    Parameters
    ----------
    service:
        The backend answering coalesced batches.
    config:
        Coalescing/admission knobs (:class:`IngressConfig`).
    clock:
        Injectable time source for queue-wait telemetry and the deadline.
    """

    def __init__(
        self,
        service: ServingService,
        config: Optional[IngressConfig] = None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(service.telemetry, config, clock)
        self.service = service

    async def serve(self, query: int) -> IngressDecision:
        """Answer one query arrival (awaits its coalesced batch)."""
        n = self.service.matrix.n_queries
        if type(query) is not int or not 0 <= query < n:
            query = self._checked(query)
        return await self._admit(query)

    def _checked(self, payload: Any) -> int:
        return _query_index(payload, self.service.matrix.n_queries)

    def _serve_payloads(self, payloads: List[int]) -> List[IngressDecision]:
        return _decisions(
            repeat(None),
            payloads,
            self.service.serve_batch(np.asarray(payloads, dtype=np.int64)),
        )

    def _shed_decision(self, payload: int) -> IngressDecision:
        return IngressDecision(
            None, payload, DEFAULT_HINT, True, float("inf"), True
        )

    def _record_shed(self, count: int) -> None:
        self.service.record_shed(count)


class ClusterIngress(_BaseIngress):
    """Asyncio front door over a sharded :class:`ServingCluster`.

    Requests are ``(tenant, query)`` arrivals; a coalesced batch may mix
    tenants freely -- it fans out through
    :meth:`ServingCluster.serve_mixed` as one vectorised sub-batch per
    shard.  Background tasks host the cluster's refresh scheduler tick
    and, when a :class:`~repro.adaptive.ClusterAdaptationController` is
    given, its detection tick.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        config: Optional[IngressConfig] = None,
        controller=None,
    ) -> None:
        super().__init__(cluster.telemetry, config, time.monotonic)
        self.cluster = cluster
        self._directories = cluster.directories
        self.controller = controller
        if controller is not None:
            self.tickers.append(
                PeriodicTicker(
                    controller.tick, self.config.tick_interval_s, "adaptation"
                )
            )
        self.tickers.append(
            PeriodicTicker(
                cluster.tick, self.config.refresh_interval_s, "refresh-scheduler"
            )
        )

    async def serve(self, tenant: str, query: int) -> IngressDecision:
        """Answer one tenant's query arrival (awaits its coalesced batch)."""
        try:
            n = len(self._directories[tenant].names)
        except (KeyError, TypeError):
            n = 0  # the check below names the unknown tenant
        if type(query) is not int or not 0 <= query < n:
            tenant, query = self._checked((tenant, query))
        return await self._admit((tenant, query))

    def _checked(self, payload: Any) -> Tuple[str, int]:
        try:
            tenant, query = payload
            n = len(self._directories[tenant].names)
        except (TypeError, ValueError, KeyError):
            raise IngressError(
                "payload must be a (tenant, query) pair of a registered "
                f"tenant, got {payload!r}"
            ) from None
        return tenant, _query_index(query, n, tenant)

    def _serve_payloads(
        self, payloads: List[Tuple[str, int]]
    ) -> List[IngressDecision]:
        return _decisions(*zip(*payloads), self.cluster.serve_mixed(payloads))

    def _shed_decision(self, payload: Tuple[str, int]) -> IngressDecision:
        tenant, query = payload
        return IngressDecision(
            tenant, query, DEFAULT_HINT, True, float("inf"), True
        )

    def _record_shed(self, count: int) -> None:
        self.cluster.record_shed(count)

    def record_measured(
        self, decisions: Sequence[IngressDecision], measured
    ) -> None:
        """Feed measured latencies back to the cluster adaptation controller."""
        if self.controller is not None:
            for tenant, batch, took in _measured_batches(decisions, measured):
                self.controller.record(tenant, batch, took)
