"""Tests for the asyncio ingress (repro.ingress).

Three layers, matching the module's design:

* :class:`CoalescerCore` is a pure state machine driven by an explicit
  clock, so the load-bearing timing/ordering properties are checked
  exactly -- including hypothesis sweeps over arbitrary submit/advance
  interleavings (FIFO equivalence with sequential serving, per-caller
  routing, and the ``max_wait_s`` SLO bound under a fake clock);
* :class:`PeriodicTicker` hosts control loops as background tasks that
  must survive their own exceptions;
* :class:`ServiceIngress` / :class:`ClusterIngress` wire the core to
  futures and timers -- decisions must equal the synchronous batch path,
  route to the right caller, shed (never error) on overflow, and drain
  on shutdown.
"""

import asyncio
import gc
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ServingCluster
from repro.config import ALSConfig, IngressConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ClusterError, IngressError
from repro.experiments.cluster import populate_cluster
from repro.ingress import (
    FLUSH_REASONS,
    ClusterIngress,
    CoalescerCore,
    IngressDecision,
    IngressStats,
    PeriodicTicker,
    ServiceIngress,
)
from repro.scenarios import ScenarioRunner
from repro.scenarios.primitives import sudden_workload_shift
from repro.scenarios.runner import _ClusterTarget
from repro.serving import ServingService
from repro.serving.batch_cache import BatchDecisions
from repro.telemetry import Telemetry


def make_matrix(n=12, k=5, seed=2):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.5, 20.0, size=(n, k))
    matrix = WorkloadMatrix(n, k)
    observed = rng.random((n, k)) < 0.5
    observed[:, 0] = True
    rows, cols = np.nonzero(observed)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    return matrix


def make_service(**kwargs):
    return ServingService(make_matrix(), **kwargs)


def run(coro):
    return asyncio.run(coro)


# -- config ----------------------------------------------------------------------


class TestIngressConfig:
    def test_defaults_are_valid(self):
        config = IngressConfig()
        assert config.max_batch >= 1
        assert config.queue_capacity >= config.max_batch

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_s": -0.1},
            {"queue_capacity": 1, "max_batch": 2},
            {"tick_interval_s": 0.0},
            {"refresh_interval_s": -1.0},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(Exception):
            IngressConfig(**kwargs)


# -- the pure core ---------------------------------------------------------------


class TestCoalescerCore:
    def test_tokens_increase_and_fifo_batches(self):
        core = CoalescerCore(IngressConfig(max_batch=3, max_wait_s=1.0))
        tokens = [core.submit(f"p{i}", now=0.0) for i in range(3)]
        assert tokens == [0, 1, 2]
        assert core.ready(0.0)  # size trigger
        batch = core.take_batch(0.0)
        assert batch == [(0, "p0"), (1, "p1"), (2, "p2")]
        assert core.queue_depth == 0

    def test_not_ready_before_deadline_or_size(self):
        core = CoalescerCore(IngressConfig(max_batch=4, max_wait_s=0.5))
        core.submit("a", now=10.0)
        assert not core.ready(10.0)
        assert not core.ready(10.49)
        assert core.take_batch(10.4) == []
        assert core.ready(10.5)  # oldest hit the SLO bound
        assert core.next_deadline() == pytest.approx(10.5)

    def test_time_trigger_flushes_fifo_prefix(self):
        core = CoalescerCore(IngressConfig(max_batch=2, max_wait_s=1.0))
        core.submit("a", now=0.0)
        core.submit("b", now=0.5)
        core.submit("c", now=0.9)  # size trigger at depth 2 already passed
        batch = core.take_batch(1.0)
        assert [p for _, p in batch] == ["a", "b"]
        assert [p for _, p in core.take_batch(2.0)] == ["c"]

    def test_sheds_at_capacity(self):
        core = CoalescerCore(
            IngressConfig(max_batch=2, max_wait_s=1.0, queue_capacity=2)
        )
        assert core.submit("a", 0.0) is not None
        assert core.submit("b", 0.0) is not None
        assert core.submit("c", 0.0) is None
        assert core.shed == 1 and core.submitted == 3
        core.take_batch(0.0)
        assert core.submit("d", 0.0) is not None  # capacity freed by flush

    def test_force_drains_regardless_of_readiness(self):
        core = CoalescerCore(IngressConfig(max_batch=8, max_wait_s=100.0))
        core.submit("a", 0.0)
        assert core.take_batch(0.0) == []
        assert [p for _, p in core.take_batch(0.0, force=True)] == ["a"]

    def test_flush_reasons_name_the_trigger(self):
        core = CoalescerCore(IngressConfig(max_batch=2, max_wait_s=1.0))
        for payload in "abc":
            core.submit(payload, now=0.0)
        core.take_batch(0.0)  # full
        assert core.last_flush_reason == "size"
        core.take_batch(1.5)  # "c" past its deadline
        core.submit("d", now=2.0)
        core.take_batch(2.0, force=True, reason="idle")
        core.submit("e", now=3.0)
        core.take_batch(3.0, force=True)
        assert core.flush_reasons == {
            "size": 1, "deadline": 1, "idle": 1, "shutdown": 1,
        }
        assert tuple(core.flush_reasons) == FLUSH_REASONS
        assert sum(core.flush_reasons.values()) == core.flushed_batches

    def test_forced_flush_that_was_due_counts_under_its_trigger(self):
        core = CoalescerCore(IngressConfig(max_batch=2, max_wait_s=1.0))
        core.submit("a", now=0.0)
        core.submit("b", now=0.0)
        core.take_batch(0.0, force=True, reason="idle")
        assert core.flush_reasons["size"] == 1 and core.flush_reasons["idle"] == 0

    def test_unknown_flush_reason_raises(self):
        core = CoalescerCore(IngressConfig(max_batch=2, max_wait_s=1.0))
        core.submit("a", now=0.0)
        with pytest.raises(IngressError):
            core.take_batch(0.0, force=True, reason="bored")
        assert core.queue_depth == 1  # nothing was popped

    def test_last_batch_wait_is_the_batch_mean(self):
        core = CoalescerCore(IngressConfig(max_batch=4, max_wait_s=10.0))
        core.submit("a", now=0.0)
        core.submit("b", now=1.0)
        core.take_batch(3.0, force=True, reason="idle")
        assert core.last_batch_wait_s == pytest.approx(2.5)
        assert core.mean_queue_wait_s == pytest.approx(2.5)

    def test_clock_going_backwards_raises(self):
        core = CoalescerCore(IngressConfig(max_batch=1, max_wait_s=0.0))
        core.submit("a", now=5.0)
        with pytest.raises(IngressError):
            core.take_batch(4.0, force=True)

    def test_backwards_clock_takes_nothing_out_of_the_queue(self):
        core = CoalescerCore(IngressConfig(max_batch=3, max_wait_s=0.0))
        tokens = [core.submit(p, now=t) for p, t in (("a", 5.0), ("b", 6.0), ("c", 7.0))]
        with pytest.raises(IngressError):
            core.take_batch(6.5, force=True)  # "c" was submitted after this
        assert core.queue_depth == 3 and core.flushed_batches == 0
        assert core.max_queue_wait_s == 0.0 and core.last_flush_reason is None
        # The next flush with a sane clock still carries every admitted request.
        assert core.take_batch(8.0) == list(zip(tokens, "abc"))
        assert core.mean_queue_wait_s == pytest.approx(2.0)

    def test_telemetry(self):
        core = CoalescerCore(IngressConfig(max_batch=2, max_wait_s=10.0))
        core.submit("a", 0.0)
        core.submit("b", 1.0)
        core.take_batch(2.0)
        assert core.mean_batch_size == 2.0
        assert core.mean_queue_wait_s == pytest.approx(1.5)  # waited 2.0 and 1.0
        assert core.max_queue_wait_s == pytest.approx(2.0)
        assert core.max_queue_depth == 2


# -- hypothesis: interleaving equivalence, routing, SLO bound ---------------------


def drive_core(core, schedule):
    """A faithful shell: flush whenever ready, else wait for the deadline.

    ``schedule`` is a list of (delay, payload) arrivals.  Returns the
    admitted payloads (in submit order), the flushed batches, and the
    token->payload routing of every flushed request.
    """
    admitted, batches, routed = [], [], {}
    now = 0.0
    token_payload = {}
    for delay, payload in schedule:
        target = now + delay
        # Before the next arrival, fire any deadline flushes that are due.
        while True:
            deadline = core.next_deadline()
            if deadline is None or deadline > target:
                break
            now = deadline
            batch = core.take_batch(now)
            batches.append(batch)
            routed.update({t: p for t, p in batch})
        now = target
        token = core.submit(payload, now)
        if token is not None:
            admitted.append(payload)
            token_payload[token] = payload
        while core.ready(now):  # size-triggered flush
            batch = core.take_batch(now)
            batches.append(batch)
            routed.update({t: p for t, p in batch})
    while core.queue_depth:  # shutdown drain
        deadline = core.next_deadline()
        now = max(now, deadline)
        batch = core.take_batch(now)
        batches.append(batch)
        routed.update({t: p for t, p in batch})
    return admitted, batches, routed, token_payload


schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=60,
)
configs = st.builds(
    IngressConfig,
    max_batch=st.integers(min_value=1, max_value=8),
    max_wait_s=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    queue_capacity=st.integers(min_value=8, max_value=64),
)


class TestCoalescerProperties:
    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, config=configs)
    def test_flush_order_equals_sequential_order(self, schedule, config):
        """Concatenated batches == admitted submit order, each exactly once.

        The backend snapshot lookup is a pure function of the payload, so
        FIFO-without-loss-or-duplication is exactly the statement that any
        interleaving yields the same decisions as serving the admitted
        stream sequentially through the sync path.
        """
        core = CoalescerCore(config)
        admitted, batches, _, _ = drive_core(core, schedule)
        replayed = [p for batch in batches for _, p in batch]
        assert replayed == admitted
        assert all(len(b) <= config.max_batch for b in batches if b)

    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, config=configs)
    def test_every_response_routes_to_its_caller(self, schedule, config):
        core = CoalescerCore(config)
        _, _, routed, token_payload = drive_core(core, schedule)
        assert routed == token_payload

    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, config=configs)
    def test_no_admitted_request_waits_past_the_slo_bound(self, schedule, config):
        core = CoalescerCore(config)
        drive_core(core, schedule)
        assert core.max_queue_wait_s <= config.max_wait_s + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, config=configs, forced=st.sampled_from(["idle", "shutdown"]))
    def test_reason_counters_partition_the_batches(self, schedule, config, forced):
        core = CoalescerCore(config)
        drive_core(core, schedule)
        while core.queue_depth:
            core.take_batch(10.0, force=True, reason=forced)
        assert sum(core.flush_reasons.values()) == core.flushed_batches
        assert core.flushed_requests == core.submitted - core.shed


    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False), min_size=1, max_size=40
        ),
        max_batch=st.integers(min_value=1, max_value=7),
        slack=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_wait_accounting_is_the_per_request_loop(self, gaps, max_batch, slack):
        """Slices and reductions give the floats a per-request loop gives.

        The reference pops one request at a time and adds its wait to a
        running total, as the core did before its queue became two lists.
        """
        core = CoalescerCore(
            IngressConfig(max_batch=max_batch, max_wait_s=1.0, queue_capacity=64)
        )
        submitted, now = [], 0.0
        for gap in gaps:
            now += gap
            core.submit(len(submitted), now)
            submitted.append(now)
        total, longest, taken = 0.0, 0.0, 0
        while core.queue_depth:
            now += slack
            batch = core.take_batch(now, force=True, reason="idle")
            batch_total = 0.0
            for token, payload in batch:
                assert token == payload == taken
                waited = now - submitted[taken]
                batch_total += waited
                longest = max(longest, waited)
                taken += 1
            total += batch_total
            mean = batch_total / len(batch)
            if sys.version_info < (3, 12):  # later: sum() compensates, to more digits
                assert core.last_batch_wait_s == mean
                assert core.mean_queue_wait_s == total / taken
            assert core.last_batch_wait_s == pytest.approx(mean, rel=1e-12, abs=1e-15)
            assert core.mean_queue_wait_s == pytest.approx(total / taken, rel=1e-12, abs=1e-15)
            assert core.max_queue_wait_s == longest


# -- PeriodicTicker --------------------------------------------------------------


class TestPeriodicTicker:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(IngressError):
            PeriodicTicker(lambda: None, 0.0)

    def test_runs_periodically_and_stops(self):
        calls = []

        async def scenario():
            ticker = PeriodicTicker(lambda: calls.append(1), 0.005, "t")
            ticker.start()
            with pytest.raises(IngressError):
                ticker.start()  # double start
            await asyncio.sleep(0.03)
            await ticker.stop()
            assert not ticker.running
            settled = len(calls)
            await asyncio.sleep(0.02)
            assert len(calls) == settled  # genuinely stopped

        run(scenario())
        assert len(calls) >= 2

    def test_exceptions_are_contained(self):
        def boom():
            raise ValueError("tick failed")

        async def scenario():
            ticker = PeriodicTicker(boom, 0.005, "b")
            ticker.start()
            await asyncio.sleep(0.03)
            assert ticker.running  # still alive despite failures
            await ticker.stop()
            return ticker

        ticker = run(scenario())
        assert ticker.errors >= 2
        assert isinstance(ticker.last_error, ValueError)
        assert ticker.runs == 0

    def test_fire_now_counts_a_run(self):
        ticker = PeriodicTicker(lambda: None, 1.0)
        ticker.fire_now()
        assert ticker.runs == 1

    def test_start_outside_running_loop_raises(self):
        ticker = PeriodicTicker(lambda: None, 1.0)
        with pytest.raises(IngressError):
            ticker.start()

    def test_stop_tolerates_every_lifecycle_state(self):
        # Debug mode makes asyncio report pending-task destruction and
        # unretrieved task exceptions through the loop exception handler;
        # a hardened ticker shutdown must trigger neither.
        problems = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: problems.append(context)
            )
            ticker = PeriodicTicker(lambda: None, 0.005, "clean")
            await ticker.stop()  # never started: no-op
            ticker.start()
            await asyncio.sleep(0.012)
            await ticker.stop()
            await ticker.stop()  # idempotent
            assert not ticker.running
            ticker.start()  # restartable after a clean stop
            await ticker.stop()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario(), debug=True)
        gc.collect()
        assert problems == []

    def test_sync_cancel_never_leaks_pending_tasks(self):
        problems = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: problems.append(context)
            )
            ticker = PeriodicTicker(lambda: None, 0.005, "teardown")
            ticker.cancel()  # never started: no-op
            ticker.start()
            await asyncio.sleep(0.012)
            ticker.cancel()  # the no-await teardown path
            assert not ticker.running
            ticker.cancel()  # idempotent
            for _ in range(5):  # let the cancellation unwind
                await asyncio.sleep(0)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            ticker.start()  # restartable after a sync cancel
            await ticker.stop()

        asyncio.run(scenario(), debug=True)
        gc.collect()
        assert problems == []


# -- ServiceIngress --------------------------------------------------------------


class TestServiceIngress:
    def test_requires_start(self):
        ingress = ServiceIngress(make_service())

        async def scenario():
            with pytest.raises(IngressError):
                await ingress.serve(0)

        run(scenario())

    def test_double_start_raises(self):
        async def scenario():
            async with ServiceIngress(make_service()) as ingress:
                with pytest.raises(IngressError):
                    await ingress.start()

        run(scenario())

    def test_out_of_range_query_raises(self):
        async def scenario():
            async with ServiceIngress(make_service()) as ingress:
                with pytest.raises(IngressError):
                    await ingress.serve(-1)
                with pytest.raises(IngressError):
                    await ingress.serve(9999)

        run(scenario())

    @pytest.mark.parametrize(
        "query",
        [float("nan"), float("inf"), None, "3", 1.9, 3.0, True, np.float64(2.0),
         np.bool_(True), [1], b"1"],
    )
    def test_non_integral_query_raises_typed_error_before_admission(self, query):
        service = make_service()

        async def scenario():
            async with ServiceIngress(service) as ingress:
                with pytest.raises(IngressError):
                    await ingress.serve(query)
                return ingress.stats()

        stats = run(scenario())
        assert stats.submitted == 0  # rejected at the door, never queued
        assert service.stats().decisions == 0

    def test_numpy_integer_query_is_served_as_a_plain_int(self):
        async def scenario():
            async with ServiceIngress(make_service()) as ingress:
                return await ingress.serve(np.int32(7))

        decision = run(scenario())
        assert decision.query == 7 and type(decision.query) is int

    def test_decisions_match_sync_batch_path(self):
        service = make_service()
        sync_service = ServingService(make_matrix())
        queries = [3, 0, 7, 3, 11, 5, 0]
        expected = sync_service.serve_batch(np.asarray(queries, dtype=np.int64))

        async def scenario():
            config = IngressConfig(max_batch=3, max_wait_s=0.001)
            async with ServiceIngress(service, config) as ingress:
                return await asyncio.gather(*(ingress.serve(q) for q in queries))

        results = run(scenario())
        assert [r.query for r in results] == queries  # routed to the caller
        assert [r.hint for r in results] == expected.hints.tolist()
        assert [r.used_default for r in results] == expected.used_default.tolist()
        np.testing.assert_allclose(
            [r.expected_latency for r in results], expected.expected_latency
        )
        assert not any(r.shed for r in results)

    def test_serve_many_equals_individual_serves(self):
        queries = [1, 4, 2, 2, 9]

        async def gather_one_by_one():
            async with ServiceIngress(make_service()) as ingress:
                return await asyncio.gather(*(ingress.serve(q) for q in queries))

        async def bulk():
            async with ServiceIngress(make_service()) as ingress:
                return await ingress.serve_many(queries)

        assert run(gather_one_by_one()) == run(bulk())

    def test_burst_past_capacity_sheds_default_plans(self):
        service = make_service()
        config = IngressConfig(max_batch=4, max_wait_s=0.001, queue_capacity=8)

        async def scenario():
            async with ServiceIngress(service, config) as ingress:
                answers = await ingress.serve_many([i % 12 for i in range(50)])
                return answers, ingress.stats()

        answers, stats = run(scenario())
        shed = [a for a in answers if a.shed]
        assert len(answers) == 50
        assert len(shed) == 50 - 8  # everything past capacity, none errored
        assert all(a.used_default and a.expected_latency == float("inf") for a in shed)
        assert stats.shed == len(shed)
        assert service.stats().shed == len(shed)
        assert stats.max_queue_depth <= config.queue_capacity
        assert stats.served == 50 - len(shed)

    def test_stop_drains_pending_requests(self):
        service = make_service()
        # An hour-long SLO: only the shutdown drain can answer these.
        config = IngressConfig(max_batch=100, max_wait_s=3600.0)

        async def scenario():
            ingress = ServiceIngress(service, config)
            await ingress.start()
            pending = asyncio.ensure_future(ingress.serve_many([1, 2, 3]))
            await asyncio.sleep(0)  # let the submits land
            assert ingress.stats().queue_depth == 3
            await ingress.stop()
            return await pending

        results = run(scenario())
        assert [r.query for r in results] == [1, 2, 3]
        assert not any(r.shed for r in results)

    def test_stats_roundtrip(self):
        async def scenario():
            async with ServiceIngress(make_service()) as ingress:
                await ingress.serve_many([0, 1])
                return ingress.stats()

        stats = run(scenario())
        assert isinstance(stats, IngressStats)
        payload = stats.as_dict()
        assert payload["submitted"] == 2 and payload["shed"] == 0
        assert "mean_batch" in str(stats)


# -- the quiescence probe ----------------------------------------------------------


HOUR = IngressConfig(
    max_batch=100,
    max_wait_s=3600.0,  # the timer can never be what answers
    queue_capacity=4096,
    tick_interval_s=3600.0,
    refresh_interval_s=3600.0,
)


class _ClosedLoopTarget(_ClusterTarget):
    """The built-in (one-shard) scenario target, serving through four
    closed-loop ingress clients.

    Each client awaits its own requests back to back, so no batch ever
    fills and every flush is the quiescence probe's.
    """

    def __init__(self, worlds, n_hints):
        super().__init__(worlds, n_hints, n_shards=1)
        self.loop = asyncio.new_event_loop()
        self.ingress = None

    def serve(self, tenant, local_queries):
        if self.ingress is None:
            self.ingress = ClusterIngress(self.cluster, HOUR)
            self.loop.run_until_complete(self.ingress.start())
        rows = np.asarray(local_queries, dtype=np.int64)
        answers = [None] * len(rows)

        async def client(start):
            for i in range(start, len(rows), 4):
                answers[i] = await self.ingress.serve(tenant, int(rows[i]))

        async def drive():
            await asyncio.wait_for(
                asyncio.gather(*(client(c) for c in range(4))), 30.0
            )

        self.loop.run_until_complete(drive())
        return BatchDecisions(
            queries=rows,
            hints=np.asarray([a.hint for a in answers], dtype=np.int64),
            used_default=np.asarray([a.used_default for a in answers], dtype=bool),
            expected_latency=np.asarray(
                [a.expected_latency for a in answers], dtype=float
            ),
        )


class TestIdleFlush:
    def test_lone_request_does_not_wait_for_the_timer(self):
        async def scenario():
            async with ServiceIngress(make_service(), HOUR) as ingress:
                decision = await asyncio.wait_for(ingress.serve(3), 1.0)
                return decision, ingress.stats()

        decision, stats = run(scenario())
        assert decision.query == 3 and not decision.shed
        assert stats.flush_reasons == {
            "size": 0, "deadline": 0, "idle": 1, "shutdown": 0,
        }

    def test_submits_runnable_in_one_pass_leave_as_one_batch(self):
        queries = [i % 12 for i in range(40)]

        async def scenario():
            async with ServiceIngress(make_service(), HOUR) as ingress:
                answers = await asyncio.wait_for(
                    asyncio.gather(*(ingress.serve(q) for q in queries)), 1.0
                )
                return answers, ingress.stats()

        answers, stats = run(scenario())
        assert [a.query for a in answers] == queries
        assert stats.flushed_batches == 1
        assert stats.mean_batch_size == len(queries)
        assert stats.flush_reasons["idle"] == 1

    def test_closed_loop_clients_keep_coalescing(self):
        # Callers woken by one flush resubmit in the same pass: four
        # clients stay one batch of four per round, timer or no timer.
        async def scenario():
            async with ServiceIngress(make_service(), HOUR) as ingress:
                async def client(c):
                    for i in range(25):
                        await ingress.serve((c + i) % 12)

                await asyncio.wait_for(
                    asyncio.gather(*(client(c) for c in range(4))), 5.0
                )
                return ingress.stats()

        stats = run(scenario())
        assert stats.flushed_batches == 25
        assert stats.mean_batch_size == 4.0
        assert stats.flush_reasons["idle"] == 25

    def test_same_pass_burst_past_capacity_still_sheds(self):
        service = make_service()
        config = IngressConfig(max_batch=4, max_wait_s=3600.0, queue_capacity=8)

        async def scenario():
            async with ServiceIngress(service, config) as ingress:
                answers = await asyncio.wait_for(
                    asyncio.gather(*(ingress.serve(i % 12) for i in range(50))),
                    1.0,
                )
                return answers, ingress.stats()

        answers, stats = run(scenario())
        # The probe never runs before the burst has joined or overflowed.
        assert sum(a.shed for a in answers) == 50 - 8
        assert stats.shed == 50 - 8 and service.stats().shed == 50 - 8
        assert stats.flush_reasons["size"] == 2 and stats.flushed_batches == 2

    def test_trickle_is_cut_by_the_timer_within_the_cap(self):
        config = IngressConfig(
            max_batch=100_000, max_wait_s=0.005, queue_capacity=100_000
        )

        async def scenario():
            async with ServiceIngress(make_service(), config) as ingress:
                pending, longest_pass = [], 0.0
                began = last = time.monotonic()
                # One submit per loop pass for many times the cap: the
                # loop is never quiet, so the probe never fires.
                while last - began < 0.05:
                    pending.append(asyncio.ensure_future(ingress.serve(1)))
                    await asyncio.sleep(0)
                    now = time.monotonic()
                    longest_pass = max(longest_pass, now - last)
                    last = now
                during = ingress.stats()
                await asyncio.wait_for(asyncio.gather(*pending), 1.0)
                return during, ingress.stats(), longest_pass

        during, stats, longest_pass = run(scenario())
        assert during.flush_reasons["deadline"] >= 3
        assert during.flush_reasons["idle"] == during.flush_reasons["size"] == 0
        # The cap, plus the one pass the due timer may have to wait for.
        # (Only while trickling: the gather over thousands of futures
        # above is itself one very long pass.)
        assert during.max_queue_wait_s <= config.max_wait_s + longest_pass + 1e-4
        assert stats.served == stats.submitted

    def test_idle_ingress_schedules_nothing(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            async with ServiceIngress(make_service(), HOUR) as ingress:
                await asyncio.wait_for(ingress.serve(0), 1.0)
                await asyncio.sleep(0)  # the probe's retiring pass
                scheduled = []
                call_soon = loop.call_soon

                def spy(callback, *args, **kwargs):
                    scheduled.append(callback)
                    return call_soon(callback, *args, **kwargs)

                loop.call_soon = spy
                try:
                    await asyncio.sleep(0.02)
                finally:
                    del loop.call_soon
                return [
                    cb for cb in scheduled
                    if getattr(cb, "__self__", None) is ingress
                ], ingress

        ours, ingress = run(scenario())
        assert ours == []
        assert not ingress._probe_scheduled and ingress._timer is None

    def test_backwards_clock_strands_nobody(self):
        # The idle flush reads a clock that went backwards: the error goes
        # to the loop's handler, the batch stays queued, and the timer's
        # flush -- on a sane clock again -- answers every admitted caller.
        offset, problems = [0.0], []
        config = IngressConfig(max_batch=100, max_wait_s=0.02, queue_capacity=100)

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: problems.append(context["exception"])
            )
            ingress = ServiceIngress(
                make_service(), config, clock=lambda: time.monotonic() + offset[0]
            )
            async with ingress:
                tasks = [asyncio.ensure_future(ingress.serve(q)) for q in (4, 2, 9)]
                await asyncio.sleep(0)
                offset[0] = -60.0
                for _ in range(3):  # the probe's quiet pass comes and fails
                    await asyncio.sleep(0)
                assert len(problems) == 1 and ingress.stats().queue_depth == 3
                assert not any(task.done() for task in tasks)
                offset[0] = 0.0
                return await asyncio.wait_for(asyncio.gather(*tasks), 1.0), ingress.stats()

        answers, stats = run(scenario())
        assert isinstance(problems[0], IngressError)
        assert [a.query for a in answers] == [4, 2, 9]
        assert stats.flush_reasons == {"size": 0, "deadline": 1, "idle": 0, "shutdown": 0}

    def test_reason_counters_sum_to_flushed_batches(self):
        config = IngressConfig(max_batch=8, max_wait_s=0.002, queue_capacity=64)

        async def scenario():
            ingress = ServiceIngress(make_service(), config)
            await ingress.start()
            await ingress.serve_many(list(range(12)) * 2)  # size, then idle
            for _ in range(30):  # a trickle the timer has to cut
                asyncio.ensure_future(ingress.serve(2))
                await asyncio.sleep(0.0005)
            tail = asyncio.ensure_future(ingress.serve_many([1, 2, 3]))
            await asyncio.sleep(0)
            await ingress.stop()  # shutdown drain
            await tail
            return ingress.stats()

        stats = run(scenario())
        assert set(stats.flush_reasons) == set(FLUSH_REASONS)
        assert sum(stats.flush_reasons.values()) == stats.flushed_batches
        assert stats.flush_reasons["size"] >= 3
        assert stats.flush_reasons["shutdown"] == 1
        assert stats.as_dict()["flush_reasons"] == stats.flush_reasons

    def test_decisions_on_scenario_traffic_are_byte_identical_to_sync(self):
        spec = sudden_workload_shift(seed=3, n_queries=60, n_hints=8, batch_size=32)
        sync_trace = ScenarioRunner(spec, adaptive=False).run()
        targets = []

        def factory(worlds):
            targets.append(_ClosedLoopTarget(worlds, spec.tenants[0].n_hints))
            return targets[-1]

        try:
            trace = ScenarioRunner(spec, target=factory, adaptive=False).run()
            (target,) = targets
            stats = target.ingress.stats()
        finally:
            for target in targets:
                if target.ingress is not None:
                    target.loop.run_until_complete(target.ingress.stop())
                target.loop.close()
        assert trace.decisions_blob() == sync_trace.decisions_blob()
        assert stats.flush_reasons["idle"] == stats.flushed_batches > 0
        assert stats.mean_batch_size == 4.0

    def test_flush_reasons_and_queue_wait_reach_the_registry(self):
        telemetry = Telemetry()
        service = make_service(telemetry=telemetry)

        async def scenario():
            async with ServiceIngress(service, HOUR) as ingress:
                await asyncio.wait_for(ingress.serve(1), 1.0)
                await asyncio.wait_for(ingress.serve_many([2, 3]), 1.0)
                return ingress.stats()

        stats = run(scenario())
        family = telemetry.registry.get("repro_ingress_flushes_total")
        mirrored = {labels[0]: child.value for labels, child in family.children()}
        assert mirrored == stats.flush_reasons
        stages = telemetry.registry.get("repro_stage_seconds")
        assert stages.labels("ingress.queue_wait").count == stats.flushed_batches
        trace = telemetry.tracer.slow_traces()[-1]
        assert [stage for stage, _ in trace.stages][0] == "ingress.queue_wait"
        by_stage = dict(trace.stages)
        assert trace.total_seconds == pytest.approx(
            by_stage["ingress.queue_wait"] + by_stage["ingress.flush"]
        )


# -- ClusterIngress --------------------------------------------------------------


def make_cluster(tenants=("acme", "globex")):
    matrix = make_matrix(n=20, k=5, seed=4)
    cluster = ServingCluster(
        n_shards=2,
        n_hints=matrix.n_hints,
        als_config=ALSConfig(rank=2, iterations=2, seed=0),
    )
    for tenant in tenants:
        populate_cluster(cluster, tenant, matrix)
    return cluster


class TestClusterIngress:
    def test_mixed_tenant_decisions_match_sync_path(self):
        cluster = make_cluster()
        sync_cluster = make_cluster()
        arrivals = [("acme", 3), ("globex", 0), ("acme", 19), ("globex", 7)]
        expected = sync_cluster.serve_mixed(arrivals)

        async def scenario():
            async with ClusterIngress(cluster) as ingress:
                return await asyncio.gather(
                    *(ingress.serve(t, q) for t, q in arrivals)
                )

        results = run(scenario())
        assert [(r.tenant, r.query) for r in results] == arrivals
        assert [r.hint for r in results] == expected.hints.tolist()
        np.testing.assert_allclose(
            [r.expected_latency for r in results], expected.expected_latency
        )

    def test_unknown_tenant_and_bad_query_raise(self):
        async def scenario():
            async with ClusterIngress(make_cluster()) as ingress:
                with pytest.raises(IngressError, match="ghost"):
                    await ingress.serve("ghost", 0)
                with pytest.raises(IngressError):
                    await ingress.serve("acme", 10_000)

        run(scenario())

    @pytest.mark.parametrize("query", [float("nan"), None, "3", 1.9, True])
    def test_non_integral_query_raises_typed_error(self, query):
        async def scenario():
            async with ClusterIngress(make_cluster()) as ingress:
                with pytest.raises(IngressError, match="acme"):
                    await ingress.serve("acme", query)
                return ingress.stats()

        assert run(scenario()).submitted == 0

    def test_shed_counts_reach_cluster_stats(self):
        cluster = make_cluster()
        config = IngressConfig(max_batch=4, max_wait_s=0.001, queue_capacity=4)

        async def scenario():
            async with ClusterIngress(cluster, config) as ingress:
                return await ingress.serve_many(
                    [("acme", i % 20) for i in range(30)]
                )

        answers = run(scenario())
        shed = sum(1 for a in answers if a.shed)
        assert shed == 30 - 4
        assert cluster.stats().shed_decisions == shed
        assert all(a.used_default for a in answers if a.shed)

    def test_record_shed_rejects_negative(self):
        cluster = make_cluster()
        for count in (-1, True, 2.5, "4", None):
            with pytest.raises(ClusterError):
                cluster.record_shed(count)
        cluster.record_shed(np.int64(3))
        assert cluster.stats().shed_decisions == 3

    def test_refresh_scheduler_ticks_in_background(self):
        cluster = make_cluster()
        config = IngressConfig(refresh_interval_s=0.005)

        async def scenario():
            async with ClusterIngress(cluster, config) as ingress:
                await asyncio.sleep(0.03)
                return ingress.stats()

        stats = run(scenario())
        assert stats.background_ticks["refresh-scheduler"] >= 2

    def test_background_tickers_fire_and_report(self):
        ticks = []

        class FakeController:
            def tick(self):
                ticks.append(1)

        config = IngressConfig(tick_interval_s=0.005, refresh_interval_s=3600.0)

        async def scenario():
            async with ClusterIngress(
                make_cluster(), config, controller=FakeController()
            ) as ingress:
                assert all(t.running for t in ingress.tickers)
                await asyncio.sleep(0.03)
                stats = ingress.stats()
            assert not any(t.running for t in ingress.tickers)
            return stats

        stats = run(scenario())
        assert len(ticks) >= 2
        assert stats.background_ticks["adaptation"] >= 2
        assert set(stats.background_ticks) == {"adaptation", "refresh-scheduler"}

    def test_record_measured_skips_shed_and_validates_shape(self):
        recorded = []

        class FakeController:
            def tick(self):
                pass

            def record(self, tenant, decisions, measured):
                recorded.append((tenant, decisions.queries.tolist(), measured.tolist()))

        cluster = make_cluster()

        async def scenario():
            async with ClusterIngress(cluster) as ingress:
                return await ingress.serve_many([("acme", 0), ("globex", 1), ("acme", 2)])

        answers = run(scenario())
        ingress = ClusterIngress(cluster, controller=FakeController())
        with pytest.raises(IngressError):
            ingress.record_measured(answers, [1.0])  # wrong shape
        shed_only = [IngressDecision("acme", 0, 0, True, float("inf"), True)]
        ingress.record_measured(shed_only, [1.0])  # no-op, no crash
        assert recorded == []
        ingress.record_measured(answers, [1.0, 2.0, 3.0])
        assert recorded == [("acme", [0, 2], [1.0, 3.0]), ("globex", [1], [2.0])]


# -- serve_many checks its payloads like serve does ---------------------------------


def _service_door():
    return ServiceIngress(make_service(), IngressConfig(max_batch=4, queue_capacity=4))


def _cluster_door():
    return ClusterIngress(make_cluster(), IngressConfig(max_batch=4, queue_capacity=4))


_BAD_VECTORS = [
    (_service_door, [3, 1.7]),
    (_service_door, [True]),
    (_service_door, [0, 1, 10**9]),
    (_service_door, [("acme", 0)]),
    (_cluster_door, [("acme", 3), ("acme", 1.7)]),
    (_cluster_door, [("acme", True)]),
    (_cluster_door, [("acme", 10**9)]),
    (_cluster_door, [("acme", 0), ("nope", 0)]),
    (_cluster_door, [7]),
    (_cluster_door, [("acme", 0, 0)]),
    (_cluster_door, [(["acme"], 0)]),
]


class TestServeManyValidation:
    @pytest.mark.parametrize("door, payloads", _BAD_VECTORS)
    def test_bad_vector_admits_nothing_and_sheds_nothing(self, door, payloads):
        async def scenario():
            async with door() as ingress:
                # More payloads than the queue holds: admitting the good
                # prefix first would shed before the bad one is reached.
                with pytest.raises(IngressError):
                    await ingress.serve_many(payloads[:1] * 8 + payloads)
                return ingress.stats()

        stats = run(scenario())
        assert (stats.submitted, stats.shed, stats.queue_depth) == (0, 0, 0)

    @pytest.mark.parametrize(
        "door, good, bad",
        [
            (_service_door, [3, 1, 4], [1, 2.5]),
            (_cluster_door, [("acme", 3), ("globex", 1)], [("acme", 0), ("nope", 0)]),
        ],
    )
    def test_good_vector_beside_a_concurrent_bad_one_keeps_its_answers(
        self, door, good, bad
    ):
        async def scenario(vectors):
            async with door() as ingress:
                return await asyncio.gather(
                    *(ingress.serve_many(v) for v in vectors), return_exceptions=True
                )

        (alone,) = run(scenario([good]))
        answers, problem = run(scenario([good, bad]))
        assert isinstance(problem, IngressError)
        assert answers == alone and not any(a.shed for a in answers)
