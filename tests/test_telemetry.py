"""Telemetry: registry algebra, tracing, hot-path cost, the one counter store.

The merge law is the load-bearing property: because every histogram of a
family shares fixed bucket bounds, ``merge(a, b)`` must be *exactly*
``observe(union of samples)`` -- that is what makes per-shard registries
foldable into one cluster view without approximation (beyond the bucket
resolution any single histogram already has).  Hypothesis sweeps it.

The other contracts under test:

* label cardinality collapses into ``__overflow__`` past the bound,
* the slow-trace ring evicts oldest-first and counts drops,
* telemetry **off** (``telemetry=None``, the default) keeps no allocation
  on the batched lookup hot path,
* decisions are byte-identical with telemetry on vs off,
* ``ServingStats.from_registry`` / ``ClusterStats.from_registry``
  agree with the recorder-backed reports (both read the same cells),
* counters conserve under arbitrary interleavings of serve / observe /
  shed / kill / restart / checkpoint / add_shard / reset, with and
  without a ``Telemetry``, against an independent tally,
* ``configure_logging`` reconfigures its own handler on repeated calls
  and ``json_logs=True`` emits one parseable dict per line.
"""

from __future__ import annotations

import io
import json
import logging
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.workload_matrix import WorkloadMatrix
from repro.cluster.cluster import ServingCluster
from repro.cluster.stats import ClusterStats
from repro.errors import ClusterError, ServingError, TelemetryError
from repro.logging_util import JsonFormatter, configure_logging, get_logger
from repro.serving.service import ServingService
from repro.serving.stats import RECENT_BATCHES, LatencyRecorder, ServingStats
from repro.telemetry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    collect_snapshot,
    write_telemetry_json,
)
from repro.telemetry import tracing
from repro.telemetry.registry import MAX_LABEL_VALUES


def make_matrix(n_queries: int = 20, n_hints: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    matrix = WorkloadMatrix(n_queries, n_hints)
    for q in range(n_queries):
        for h in range(n_hints):
            matrix.observe(q, h, float(rng.uniform(0.01, 0.3)))
    return matrix


def serve_traffic(service, n_batches: int = 8, seed: int = 1):
    rng = np.random.default_rng(seed)
    hints = []
    for _ in range(n_batches):
        batch = rng.integers(0, service.matrix.n_queries, size=16)
        decisions = service.serve_batch(batch)
        hints.append(decisions.hints.copy())
        service.observe_batch(
            batch,
            decisions.hints.tolist(),
            rng.uniform(0.01, 0.2, size=batch.size).tolist(),
        )
    return hints


# -- primitive metrics ---------------------------------------------------------


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(TelemetryError):
            c.inc(-1)
        with pytest.raises(AttributeError):
            c.value = 99  # read-only: the registry is the mutation authority

    def test_gauge_up_and_down(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7.0

    def test_histogram_bounds_validation(self):
        with pytest.raises(TelemetryError):
            Histogram(bounds=[])
        with pytest.raises(TelemetryError):
            Histogram(bounds=[1.0, 1.0, 2.0])
        with pytest.raises(TelemetryError):
            Histogram(bounds=[2.0, 1.0])

    def test_histogram_weighted_observe_is_batch_amortised(self):
        h = Histogram(bounds=(0.1, 1.0))
        h.observe(0.05, weight=32)  # one batch, 32 decisions
        assert h.count == 32
        assert h.total == pytest.approx(0.05 * 32)
        assert h.counts[0] == 32

    def test_histogram_observe_many_matches_loop(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.5, size=200)
        vector = Histogram()
        vector.observe_many(values)
        loop = Histogram()
        for v in values:
            loop.observe(float(v))
        assert vector.counts == loop.counts
        assert vector.count == loop.count
        assert vector.total == pytest.approx(loop.total)

    def test_histogram_quantile_anchors(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        assert h.quantile(0.5) == 0.0  # empty
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert 0.0 <= h.quantile(0.25) <= 1.0
        assert h.quantile(1.0) == 4.0  # +Inf clamps to last bound
        with pytest.raises(TelemetryError):
            h.quantile(1.5)


# -- the merge law (hypothesis) ------------------------------------------------


_SAMPLES = st.lists(
    st.tuples(
        st.floats(
            min_value=0.0,
            max_value=2.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


class TestMergeLaw:
    @given(left=_SAMPLES, right=_SAMPLES)
    @settings(deadline=None, max_examples=80)
    def test_histogram_merge_equals_observe_all(self, left, right):
        a = Histogram()
        for value, weight in left:
            a.observe(value, weight)
        b = Histogram()
        for value, weight in right:
            b.observe(value, weight)
        merged = Histogram()
        merged.merge_from(a)
        merged.merge_from(b)
        direct = Histogram()
        for value, weight in left + right:
            direct.observe(value, weight)
        assert merged.counts == direct.counts
        assert merged.count == direct.count
        assert merged.total == pytest.approx(direct.total)
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(direct.quantile(q))

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(TelemetryError):
            a.merge_from(b)


# -- cardinality guard ---------------------------------------------------------


class TestCardinality:
    def test_overflow_collapses_past_bound(self):
        reg = MetricsRegistry()
        family = reg.counter("repro_t_total", labels=("tenant",))
        for tenant in range(MAX_LABEL_VALUES):
            family.labels(f"t{tenant}").inc()
        overflowed = family.labels("late")
        again = family.labels("later")
        assert overflowed is again  # both collapse onto the shared child
        overflowed.inc(5)
        assert family.labels(OVERFLOW_LABEL).value == 5
        assert reg.label_overflows.value == 2
        # Established children keep working past the bound.
        family.labels("t0").inc()
        assert family.labels("t0").value == 2
        assert len(family.children()) == MAX_LABEL_VALUES + 1  # + overflow

    def test_snapshot_reports_overflows(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_t_total", labels=("tenant",))
        for tenant in range(MAX_LABEL_VALUES + 1):
            fam.labels(f"t{tenant}").inc()
        assert reg.snapshot()["_label_overflows"] == 1

    def test_registration_signature_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        assert reg.counter("repro_x_total") is reg.get("repro_x_total")
        with pytest.raises(TelemetryError):
            reg.gauge("repro_x_total")
        with pytest.raises(TelemetryError):
            reg.counter("repro_x_total", labels=("shard",))
        with pytest.raises(TelemetryError):
            reg.counter("bad name!")


# -- tracing -------------------------------------------------------------------


class TestTracing:
    def test_ring_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(MetricsRegistry())
        for i in range(tracing.TRACE_RING + 2):
            tracer.start(f"t{i}")
            tracer.record_stage("shard.serve", 0.001 * (i + 1))
            tracer.finish()
        names = [t.name for t in tracer.slow_traces()]
        # t0, t1 evicted oldest-first
        assert names == [f"t{i}" for i in range(2, tracing.TRACE_RING + 2)]
        assert tracer.dropped_traces == 2
        assert tracer.finished_traces == tracing.TRACE_RING + 2

    def test_slow_threshold_filters_ring(self, monkeypatch):
        # The threshold is 0.0 (every trace is admitted); a raised one shows
        # the admission test at work.
        monkeypatch.setattr(tracing, "SLOW_TRACE_SECONDS", 0.01)
        tracer = Tracer(MetricsRegistry())
        tracer.start("fast")
        tracer.record_stage("shard.serve", 0.001)
        tracer.finish()
        tracer.start("slow")
        tracer.record_stage("shard.serve", 0.02)
        tracer.finish()
        assert [t.name for t in tracer.slow_traces()] == ["slow"]
        assert tracer.finished_traces == 2  # both finished, one admitted

    def test_stages_feed_histogram_without_open_trace(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        tracer.record_stage("cache.lookup", 0.003, weight=4)
        hist = reg.get("repro_stage_seconds").labels("cache.lookup")
        assert hist.count == 4
        assert tracer.current is None

    def test_total_is_enclosing_stage_and_slowest_sorts(self):
        tracer = Tracer(MetricsRegistry())
        tracer.start("req", batch_size=8)
        tracer.record_stage("shard.serve", 0.010)
        tracer.record_stage("cache.lookup", 0.004)  # nested, not additive
        trace = tracer.finish()
        assert trace.total_seconds == pytest.approx(0.010)
        slowest = tracer.slowest(1)
        assert slowest and slowest[0].name == "req"

    def test_abandon_drops_current(self):
        tracer = Tracer(MetricsRegistry())
        tracer.start("doomed")
        tracer.abandon()
        assert tracer.finish() is None
        assert tracer.slow_traces() == []


# -- exposition ----------------------------------------------------------------


class TestExposition:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_decisions_total", "Decisions served.", labels=("shard",)
        ).labels("0").inc(7)
        hist = reg.histogram("repro_batch_seconds", bounds=(0.1, 1.0))
        hist.child.observe(0.05)
        hist.child.observe(0.5)
        hist.child.observe(5.0)
        text = reg.expose_text()
        assert "# HELP repro_decisions_total Decisions served." in text
        assert "# TYPE repro_decisions_total counter" in text
        assert 'repro_decisions_total{shard="0"} 7' in text
        assert "# TYPE repro_batch_seconds histogram" in text
        # Cumulative buckets: 1 at le=0.1, 2 at le=1.0, 3 at +Inf.
        assert 'repro_batch_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_batch_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_batch_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_batch_seconds_count 3" in text
        assert "repro_label_overflows_total 0" in text

    def test_snapshot_is_json_ready(self):
        tel = Telemetry()
        tel.serving_metrics().decisions.inc(3)
        json.dumps(tel.snapshot())  # must not raise
        json.dumps(tel.registry.snapshot())


# -- the default and shard views -----------------------------------------------


class TestConfig:
    def test_disabled_by_default(self):
        assert ServingService(make_matrix()).telemetry is None
        assert ServingCluster(1, 4).telemetry is None

    def test_default_buckets_are_positive_and_strictly_increasing(self):
        # The merge law and every quantile read rely on these bounds.
        assert all(bound > 0 for bound in DEFAULT_BUCKETS)
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_passing_a_telemetry_turns_it_on(self):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        assert service.telemetry is tel
        assert service.cache._tracer is tel.tracer
        cluster = ServingCluster(2, 4, telemetry=tel)
        assert cluster.telemetry is tel
        for shard_id, shard in cluster.shards.items():
            assert shard.telemetry.registry is tel.registry
            assert shard.telemetry.shard_label == str(shard_id)

    def test_labeled_views_share_registry(self):
        tel = Telemetry()
        shard0 = tel.labeled("0")
        shard1 = tel.labeled("1")
        assert shard0.registry is tel.registry
        assert shard0.tracer is tel.tracer
        shard0.serving_metrics().decisions.inc(2)
        shard1.serving_metrics().decisions.inc(3)
        family = tel.registry.get("repro_decisions_total")
        assert family.merged_child().value == 5


# -- hot path ------------------------------------------------------------------


class TestHotPath:
    def test_decisions_identical_with_telemetry_on_off(self):
        base = ServingService(make_matrix(seed=5))
        instrumented = ServingService(
            make_matrix(seed=5), telemetry=Telemetry()
        )
        for hints_a, hints_b in zip(
            serve_traffic(base, seed=9), serve_traffic(instrumented, seed=9)
        ):
            np.testing.assert_array_equal(hints_a, hints_b)

    def test_disabled_telemetry_normalises_to_none(self):
        service = ServingService(make_matrix(), telemetry=None)
        assert service.telemetry is None
        assert service.cache._tracer is None

    def test_disabled_adds_zero_allocations_on_batched_lookup(self):
        """Off, a steady-state batched lookup keeps no block allocated by
        ``repro`` code.  tracemalloc, filtered to the package, ignores what
        the interpreter and the test runner allocate meanwhile, so the count
        does not depend on which tests ran before."""
        service = ServingService(make_matrix(seed=2))
        queries = np.arange(service.matrix.n_queries, dtype=np.int64)
        for _ in range(5):  # warm the snapshot and its row lists
            service.cache.decide(queries)
        package = [tracemalloc.Filter(True, str(pathlib.Path(repro.__file__).parent / "*"))]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(package)
            for _ in range(60):
                service.cache.decide(queries)
            after = tracemalloc.take_snapshot().filter_traces(package)
        finally:
            tracemalloc.stop()
        kept = [diff for diff in after.compare_to(before, "lineno") if diff.size_diff > 0]
        assert not kept, kept

    def test_enabled_records_stages_and_counters(self):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        served = sum(h.size for h in serve_traffic(service, n_batches=4))
        # The feedback path records its stage unconditionally; the serve
        # stages only attribute inside an open trace (see ingress test).
        stage = tel.registry.get("repro_stage_seconds")
        assert {key[0] for key, _ in stage.children()} == {"observe"}
        decisions = tel.registry.get("repro_decisions_total").merged_child()
        assert decisions.value == served

    def test_ingress_traces_cover_serve_stages(self):
        import asyncio

        from repro.config import IngressConfig
        from repro.ingress import ServiceIngress

        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        rng = np.random.default_rng(21)
        queries = rng.integers(0, 20, size=64).tolist()

        async def drive():
            config = IngressConfig(max_batch=16, max_wait_s=0.001)
            async with ServiceIngress(service, config) as ingress:
                return await ingress.serve_many(queries)

        results = asyncio.run(drive())
        assert len(results) == len(queries)
        assert tel.tracer.finished_traces > 0
        ring = tel.tracer.slow_traces()
        assert ring, "threshold 0.0 admits every trace"
        stages = {stage for trace in ring for stage, _ in trace.stages}
        assert {"ingress.flush", "shard.serve", "cache.lookup"} <= stages
        stage_names = {
            key[0]
            for key, _ in tel.registry.get("repro_stage_seconds").children()
        }
        assert {"ingress.flush", "shard.serve", "cache.lookup"} <= stage_names


# -- stats mirrors -------------------------------------------------------------


class TestStatsMirror:
    def test_service_from_registry_matches_recorder(self):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        serve_traffic(service, n_batches=6)
        recorded = service.stats()
        mirrored = ServingStats.from_registry(tel.registry)
        assert mirrored.decisions == recorded.decisions
        assert mirrored.batches == recorded.batches
        assert mirrored.refreshes == recorded.refreshes
        assert mirrored.shed == recorded.shed
        assert mirrored.non_default_fraction == pytest.approx(
            recorded.non_default_fraction
        )
        assert mirrored.wall_seconds == pytest.approx(recorded.wall_seconds)

    def test_totals_stay_exact_across_a_wrap_and_a_reset(self):
        tel = Telemetry()
        recorder = LatencyRecorder(tel.serving_metrics())

        def mirrored():
            return ServingStats.from_registry(tel.registry)

        def histogram_count():
            return tel.registry.get("repro_batch_seconds").merged_child().count

        rng = np.random.default_rng(4)
        n = 2 * RECENT_BATCHES + 100  # the ring wraps twice; totals must not
        sizes = rng.integers(0, 9, n)
        for size in sizes.tolist():
            recorder.record(size, 1e-4, size // 3)
        recorder.record_shed(7)
        recorder.record_refresh()
        recorded = recorder.report()
        assert recorded.batches == n
        stats = mirrored()
        assert stats.decisions == recorded.decisions == int(sizes.sum())
        assert stats.batches == n
        assert stats.wall_seconds == pytest.approx(recorded.wall_seconds)
        assert stats.non_default_fraction == pytest.approx(
            recorded.non_default_fraction
        )
        assert (stats.refreshes, stats.shed) == (1, 7)
        assert histogram_count() == recorded.decisions

        # reset() restarts the recorder's view only; the registry stays
        # monotonic and keeps counting from where it was.
        for size in sizes[:50].tolist():
            recorder.record(size, 1e-4, 0)
        recorder.reset()
        assert recorder.report().batches == 0
        for size in sizes[: RECENT_BATCHES + 5].tolist():
            recorder.record(size, 1e-4, 0)
        extra = int(sizes[:50].sum() + sizes[: RECENT_BATCHES + 5].sum())
        assert recorder.report().decisions == int(sizes[: RECENT_BATCHES + 5].sum())
        assert mirrored().decisions == recorded.decisions + extra
        assert mirrored().batches == n + 50 + RECENT_BATCHES + 5
        assert histogram_count() == recorded.decisions + extra

    def test_from_registry_on_empty_registry_is_zero(self):
        stats = ServingStats.from_registry(MetricsRegistry())
        assert stats.decisions == 0
        assert stats.throughput_qps == 0.0

    def test_cluster_from_registry_consistent_without_crashes(self):
        rng = np.random.default_rng(11)
        tel = Telemetry()
        cluster = ServingCluster(3, 4, telemetry=tel)
        keys = [f"q{i}" for i in range(18)]
        cluster.add_tenant("t", keys)
        for _ in range(6):
            batch = rng.integers(0, len(keys), size=8)
            decisions = cluster.serve_batch("t", batch)
            cluster.observe_batch(
                "t",
                batch,
                decisions.hints.tolist(),
                rng.uniform(0.01, 0.2, size=8).tolist(),
            )
        cluster.tick()
        stats = cluster.stats()
        mirror = ClusterStats.from_registry(tel.registry)
        assert mirror.cluster.decisions == stats.cluster.decisions
        assert mirror.routed_batches == stats.routed_batches
        assert sorted(mirror.per_shard) == sorted(stats.per_shard)
        assert mirror.n_shards == stats.n_shards
        assert mirror.total_rows == stats.total_rows

    def test_backwards_clock_does_not_fail_a_served_batch(self):
        ticks = iter([5.0, 4.0, 9.0, 2.0, 1.0, 1.5])
        tel = Telemetry()
        service = ServingService(
            make_matrix(), clock=lambda: next(ticks), telemetry=tel
        )
        for _ in range(3):  # elapsed: -1.0, -7.0, +0.5
            assert service.serve_batch(np.arange(8)).batch_size == 8
        stats = service.stats()
        assert (stats.decisions, stats.batches) == (24, 3)
        assert stats.wall_seconds == 0.5
        assert ServingStats.from_registry(tel.registry).wall_seconds == 0.5

    def test_stats_are_per_label_not_per_service(self):
        # The one intended semantic change of the single store: a recorder
        # is a view over its label's cells, so two live services sharing a
        # label also share totals; labeled() views keep them apart.
        tel = Telemetry()
        first = ServingService(make_matrix(seed=1), telemetry=tel)
        first.serve_batch(np.arange(5))
        second = ServingService(make_matrix(seed=2), telemetry=tel)
        second.serve_batch(np.arange(7))
        assert first.stats().decisions == 12  # everything since its baseline
        assert second.stats().decisions == 7  # the label's history predates it
        assert ServingStats.from_registry(tel.registry).decisions == 12

        apart = Telemetry()
        left = ServingService(make_matrix(seed=1), telemetry=apart.labeled("a"))
        right = ServingService(make_matrix(seed=2), telemetry=apart.labeled("b"))
        left.serve_batch(np.arange(5))
        right.serve_batch(np.arange(7))
        assert (left.stats().decisions, right.stats().decisions) == (5, 7)
        assert ServingStats.from_registry(apart.registry).decisions == 12


# -- counter conservation ------------------------------------------------------

N_QUERIES = {"a": 14, "b": 9}

OPS = st.one_of(
    st.tuples(st.just("serve_batch"), st.integers(0, 2**16)),
    st.tuples(st.just("serve_mixed"), st.integers(0, 2**16)),
    st.tuples(st.just("observe"), st.integers(0, 2**16)),
    st.tuples(st.just("shed"), st.integers(0, 9)),
    st.tuples(st.just("kill"), st.integers(0, 4)),
    st.tuples(st.just("restart"), st.integers(0, 4)),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("tick"), st.just(0)),
    st.tuples(st.just("add_shard"), st.just(0)),
    st.tuples(st.just("reset"), st.integers(0, 4)),
)


def counter_values(registry):
    """Every counter cell in the registry, keyed by (family, labels)."""
    return {
        (name, key): child.value
        for name in registry.names
        if registry.get(name).kind == "counter"
        for key, child in registry.get(name).children()
    }


def drive_cluster(ops, telemetry, home):
    """Apply ``ops`` to a 3-shard journaled cluster, checking conservation
    against a plain-int tally after every step."""
    cluster = ServingCluster(3, 4, durability_dir=home, telemetry=telemetry)
    for tenant, n in N_QUERIES.items():
        # No row is seeded: ticks land on shards that own rows but have
        # observed nothing yet, which the scheduler must skip.
        cluster.add_tenant(tenant, [f"q{i}" for i in range(n)])
    tally = dict.fromkeys(
        ("routed", "served", "degraded", "shed", "crashes", "restarts"), 0
    )
    since_reset = {sid: 0 for sid in cluster.shard_ids}
    registry = telemetry.registry if telemetry is not None else None
    before = counter_values(registry) if registry is not None else {}

    def count_arrivals(arrivals):
        tally["routed"] += 1
        for tenant, query in arrivals:
            shard = int(cluster.locate(tenant, [query])[0][0])
            if cluster.health.is_up(shard):
                tally["served"] += 1
                since_reset[shard] += 1
            else:
                tally["degraded"] += 1

    for op, arg in ops:
        rng = np.random.default_rng(arg)
        pick = cluster.shard_ids[arg % cluster.n_shards]
        if op == "serve_batch":
            tenant = "ab"[arg % 2]
            queries = rng.integers(0, N_QUERIES[tenant], size=int(rng.integers(0, 12)))
            count_arrivals([(tenant, int(q)) for q in queries])
            cluster.serve_batch(tenant, queries)
        elif op == "serve_mixed":
            arrivals = [
                (tenant, int(rng.integers(0, N_QUERIES[tenant])))
                for tenant in rng.choice(["a", "b"], size=int(rng.integers(1, 12)))
            ]
            count_arrivals(arrivals)
            cluster.serve_mixed(arrivals)
        elif op == "observe":
            queries = rng.integers(0, N_QUERIES["a"], size=6)
            cluster.observe_batch(
                "a", queries, rng.integers(0, 4, size=6), rng.uniform(0.01, 0.2, size=6)
            )
        elif op == "shed":
            cluster.record_shed(arg)
            tally["shed"] += arg
        elif op == "kill" and not cluster.shards[pick].crashed:
            cluster.kill_shard(pick)
            tally["crashes"] += 1
        elif op == "restart" and cluster.shards[pick].crashed:
            cluster.restart_shard(pick)
            tally["restarts"] += 1
            since_reset[pick] = 0  # a recovered shard's view starts from zero
        elif op == "checkpoint":
            cluster.checkpoint()
        elif op == "tick":
            cluster.tick()
        elif op == "add_shard" and cluster.n_shards < 5:
            if any(shard.crashed for shard in cluster.shards.values()):
                with pytest.raises(ClusterError):
                    cluster.add_shard()
            else:
                since_reset[cluster.add_shard()] = 0
        elif op == "reset":
            cluster.shards[pick].recorder().reset()
            since_reset[pick] = 0

        stats = cluster.stats()
        assert stats.routed_batches == tally["routed"]
        assert stats.degraded_decisions == tally["degraded"]
        assert stats.shed_decisions == tally["shed"]
        assert (stats.crashes, stats.restarts) == (tally["crashes"], tally["restarts"])
        assert stats.replayed_feedback <= stats.queued_feedback
        assert {s: v.decisions for s, v in stats.per_shard.items()} == since_reset
        assert stats.cluster.decisions == sum(since_reset.values())
        if registry is None:
            continue
        mirror = ClusterStats.from_registry(registry)
        for field in (
            "n_shards", "n_tenants", "total_rows", "routed_batches", "fan_out",
            "degraded_decisions", "shed_decisions", "rebalanced_rows",
            "scheduler_ticks", "scheduler_refreshes", "crashes", "restarts",
            "queued_feedback", "replayed_feedback",
        ):
            assert getattr(mirror, field) == getattr(stats, field), field
        # The registry remembers what restarts and resets make a view forget.
        assert mirror.cluster.decisions == tally["served"]
        assert sorted(mirror.per_shard) == sorted(stats.per_shard)
        for sid, view in stats.per_shard.items():
            assert mirror.per_shard[sid].decisions >= view.decisions
        histogram = registry.get("repro_batch_seconds").merged_child()
        assert histogram.count == tally["served"]
        after = counter_values(registry)
        assert all(after[cell] >= value for cell, value in before.items())
        before = after
    cluster.close()


class TestCounterConservation:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(OPS, max_size=40))
    def test_cluster_counters_conserve_under_interleavings(self, ops):
        with tempfile.TemporaryDirectory() as home:
            drive_cluster(ops, Telemetry(), home)

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(OPS, max_size=40))
    def test_counters_conserve_without_telemetry(self, ops):
        with tempfile.TemporaryDirectory() as home:
            drive_cluster(ops, None, home)


# -- snapshots -----------------------------------------------------------------


class TestSnapshots:
    def test_collect_snapshot_sections(self, tmp_path, monkeypatch):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        serve_traffic(service, n_batches=3)
        snapshot = collect_snapshot(
            telemetry=tel, service=service, extra={"run": "unit"}
        )
        payload = snapshot.as_dict()
        assert payload["schema_version"] == 1
        assert payload["enabled"] is True
        assert "repro_decisions_total" in payload["metrics"]
        assert payload["serving"]["decisions"] > 0
        assert payload["extra"] == {"run": "unit"}
        json.loads(snapshot.to_json())
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        path = write_telemetry_json("unit", snapshot)
        written = json.loads((tmp_path / "TELEMETRY_unit.json").read_text())
        assert written["schema_version"] == 1
        assert path.endswith("TELEMETRY_unit.json")

    def test_cluster_snapshot_has_wal_and_health(self, tmp_path):
        rng = np.random.default_rng(13)
        tel = Telemetry()
        cluster = ServingCluster(
            2, 4, durability_dir=str(tmp_path), telemetry=tel
        )
        keys = [f"q{i}" for i in range(12)]
        cluster.add_tenant("t", keys)
        batch = rng.integers(0, len(keys), size=8)
        decisions = cluster.serve_batch("t", batch)
        cluster.observe_batch(
            "t",
            batch,
            decisions.hints.tolist(),
            rng.uniform(0.01, 0.2, size=8).tolist(),
        )
        cluster.checkpoint()
        cluster.tick()
        snapshot = collect_snapshot(telemetry=tel, cluster=cluster)
        wal = snapshot.section("wal")
        assert sorted(wal) == ["0", "1"]
        for section in wal.values():
            assert section["checkpoints"] == 1
            assert section["segment_count"] >= 1
        assert snapshot.section("health")["n_up"] == 2
        assert snapshot.section("scheduler") == {
            "ticks": 1, "refreshes": 1, "skipped_down": 0
        }
        json.loads(snapshot.to_json())


# -- logging satellites --------------------------------------------------------


class TestLogging:
    @pytest.fixture(autouse=True)
    def _clean_repro_logger(self):
        logger = logging.getLogger("repro")
        saved = list(logger.handlers)
        saved_level = logger.level
        for handler in saved:
            logger.removeHandler(handler)
        yield
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        for handler in saved:
            logger.addHandler(handler)
        logger.setLevel(saved_level)

    def test_repeated_calls_update_handler_level(self):
        logger = configure_logging(logging.DEBUG)
        handler = logger.handlers[0]
        assert handler.level == logging.DEBUG
        configure_logging(logging.WARNING)
        assert len(logger.handlers) == 1
        assert handler.level == logging.WARNING
        assert logger.level == logging.WARNING

    def test_json_logs_emit_one_dict_per_line(self):
        logger = configure_logging(logging.INFO, json_logs=True)
        handler = logger.handlers[0]
        assert isinstance(handler.formatter, JsonFormatter)
        stream = io.StringIO()
        handler.stream = stream
        get_logger("unit").info("served %d", 42)
        get_logger("unit").warning("drift")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["message"] == "served 42"
        assert first["level"] == "INFO"
        assert first["logger"] == "repro.unit"
        assert json.loads(lines[1])["level"] == "WARNING"

    def test_flipping_json_mode_swaps_formatter_in_place(self):
        logger = configure_logging(logging.INFO, json_logs=True)
        configure_logging(logging.INFO, json_logs=False)
        assert len(logger.handlers) == 1
        assert not isinstance(logger.handlers[0].formatter, JsonFormatter)

    def test_foreign_handlers_are_left_alone(self):
        logger = logging.getLogger("repro")
        foreign = logging.NullHandler()
        logger.addHandler(foreign)
        configure_logging(logging.INFO)
        assert foreign in logger.handlers
        assert len(logger.handlers) == 2  # foreign + the managed one
        configure_logging(logging.DEBUG)
        assert len(logger.handlers) == 2  # still no duplication


DEFAULT_BUCKET_COUNT = len(DEFAULT_BUCKETS)


def test_default_buckets_match_config():
    assert Telemetry().serving_metrics().batch_seconds.bounds == DEFAULT_BUCKETS
    assert DEFAULT_BUCKET_COUNT == 19
