"""Telemetry: the registry, tracing, hot-path cost, the one counter store.

The contracts under test:

* label cardinality collapses into ``__overflow__`` past the bound,
* the slow-trace ring evicts oldest-first and counts drops,
* telemetry **off** (``telemetry=None``, the default) keeps no allocation
  on the batched lookup hot path,
* decisions are byte-identical with telemetry on vs off,
* each door of a journaled cluster records the stages ``tracing.STAGES``
  says, and no stage records a negative duration,
* the registry's cells, read directly, hold the totals the
  recorder-backed reports show (both read the same cells),
* counters conserve under arbitrary interleavings of serve / observe /
  censor / shed / kill / restart / checkpoint / add_shard / reset, with
  and without a ``Telemetry``, against an independent tally; a hostile
  censored bound changes nothing, and every queued cell replays.
"""

from __future__ import annotations

import json
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
from repro.errors import ClusterError, TelemetryError
from repro.serving.service import ServingService
from repro.serving.stats import RECENT_BATCHES, LatencyRecorder
from repro.telemetry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL,
    ClusterMetrics,
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
from repro.telemetry.runtime import SERVING_COUNTERS


def cell_total(registry, name):
    """One family's cells summed over every label: a counter's value, a
    histogram's sample count."""
    family = registry.get(name)
    attr = "count" if family.kind == "histogram" else "value"
    return sum(getattr(child, attr) for _, child in family.children())


def serving_cells(registry):
    """The serving counters summed over every shard label, by
    :class:`~repro.telemetry.ServingMetrics` attribute."""
    return {
        attr: cell_total(registry, name) for attr, (name, _) in SERVING_COUNTERS.items()
    }


def shard_labels(registry):
    """The shard ids the serving cells are labeled with, sorted."""
    children = registry.get("repro_decisions_total").children()
    return sorted(int(key[0]) for key, _ in children if key[0].isdigit())


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
        g.inc(-4)
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

    def test_histogram_quantile_anchors(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        assert h.quantile(0.5) == 0.0  # empty
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert 0.0 <= h.quantile(0.25) <= 1.0
        assert h.quantile(1.0) == 4.0  # +Inf clamps to last bound
        with pytest.raises(TelemetryError):
            h.quantile(1.5)

    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=40,
        )
    )
    @settings(deadline=None, max_examples=80)
    def test_histogram_counts_conserve_and_quantiles_are_monotone(self, samples):
        bounds = (0.5, 1.0, 2.0, 4.0)
        h = Histogram(bounds=bounds)
        for value, weight in samples:
            h.observe(value, weight)
        assert sum(h.counts) == h.count == sum(w for _, w in samples)
        assert h.total == pytest.approx(sum(v * w for v, w in samples))
        estimates = [h.quantile(q) for q in np.linspace(0.0, 1.0, 21)]
        assert estimates == sorted(estimates)
        assert all(0.0 <= e <= bounds[-1] for e in estimates)


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
        names = [t["name"] for t in tracer.snapshot()["ring"]]
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
        assert [t["name"] for t in tracer.snapshot()["ring"]] == ["slow"]
        assert tracer.finished_traces == 2  # both finished, one admitted

    def test_stages_feed_histogram_without_open_trace(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        for _ in range(4):
            tracer.record_stage("observe", 0.003)
        tracer.record_stage("cache.lookup", 0.003)  # records inside a trace only
        family = reg.get("repro_stage_seconds")
        assert {key[0]: child.count for key, child in family.children()} == {
            "observe": 4
        }
        assert tracer.finish() is None  # no trace was opened

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
        assert tracer.snapshot()["ring"] == []


# -- exposition ----------------------------------------------------------------


class TestExposition:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_decisions_total", "Decisions served.", labels=("shard",)
        ).labels("0").inc(7)
        hist = reg.histogram("repro_batch_seconds")
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
        tel.tracer.start("lookup")
        service.cache.decide(np.arange(4))
        assert [stage for stage, _ in tel.tracer.finish().stages] == ["cache.lookup"]
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
        assert cell_total(tel.registry, "repro_decisions_total") == 5


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
        # Nothing the service runs sees a tracer: another context's open
        # trace records no stage of it.
        other = Telemetry()
        other.tracer.start("elsewhere")
        serve_traffic(service, n_batches=2)
        assert other.tracer.finish().stages == []
        assert list(other.registry.get("repro_stage_seconds").children()) == []

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
        assert cell_total(tel.registry, "repro_decisions_total") == served

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
        ring = tel.tracer.snapshot()["ring"]
        assert ring, "threshold 0.0 admits every trace"
        stages = {stage["stage"] for trace in ring for stage in trace["stages"]}
        assert {"ingress.flush", "shard.serve", "cache.lookup"} <= stages
        stage_names = {
            key[0]
            for key, _ in tel.registry.get("repro_stage_seconds").children()
        }
        assert {"ingress.flush", "shard.serve", "cache.lookup"} <= stage_names


def stage_counts(registry):
    """``stage -> observations`` of the per-stage histogram."""
    family = registry.get("repro_stage_seconds")
    return {key[0]: child.count for key, child in family.children()}


def stage_delta(registry, act):
    """What ``act()`` adds to each stage's count (stages it left alone omitted)."""
    before = stage_counts(registry)
    act()
    after = stage_counts(registry)
    return {
        stage: count - before.get(stage, 0)
        for stage, count in after.items()
        if count != before.get(stage, 0)
    }


class TestStageTable:
    """When each stage records, per door of a journaled two-shard cluster."""

    def test_each_door_records_its_stages(self, tmp_path):
        import asyncio

        from repro.config import IngressConfig
        from repro.ingress import ClusterIngress

        tel = Telemetry()
        cluster = ServingCluster(2, 4, durability_dir=str(tmp_path), telemetry=tel)
        keys = [f"q{i}" for i in range(16)]
        cluster.add_tenant("t", keys)
        queries = np.arange(len(keys))
        assert len(set(cluster.locate("t", queries)[0].tolist())) == 2
        reg = tel.registry

        # Raw serving doors: only the routing stage, no serve-side stage
        # outside a trace.
        assert stage_delta(reg, lambda: cluster.serve_batch("t", queries)) == {
            "router.split": 1
        }
        mixed = [("t", int(q)) for q in queries]
        assert stage_delta(reg, lambda: cluster.serve_mixed(mixed)) == {
            "router.split": 1
        }

        # Feedback touching both shards: one observe and one append per shard.
        hints = np.zeros(len(keys), dtype=np.int64)
        latencies = np.full(len(keys), 0.05)
        assert stage_delta(
            reg, lambda: cluster.observe_batch("t", queries, hints, latencies)
        ) == {"observe": 2, "wal.append": 2}

        # One coalesced flush: the trace root, its wait, one split, and one
        # serve and lookup per shard present.
        arrivals = [("t", 0), ("t", 1), ("t", 2)]
        present = len(set(cluster.locate("t", [q for _, q in arrivals])[0].tolist()))
        config = IngressConfig(
            max_batch=len(arrivals), max_wait_s=60.0, refresh_interval_s=60.0
        )

        async def flush_once():
            async with ClusterIngress(cluster, config) as ingress:
                return await ingress.serve_many(arrivals)

        finished = tel.tracer.finished_traces
        assert stage_delta(reg, lambda: asyncio.run(flush_once())) == {
            "ingress.queue_wait": 1,
            "ingress.flush": 1,
            "router.split": 1,
            "shard.serve": present,
            "cache.lookup": present,
        }
        assert tel.tracer.finished_traces == finished + 1
        trace = tel.tracer.snapshot()["ring"][-1]
        assert [stage["stage"] for stage in trace["stages"]] == [
            "ingress.queue_wait",
            "router.split",
            *["cache.lookup", "shard.serve"] * present,
            "ingress.flush",
        ]
        assert trace["batch_size"] == len(arrivals)
        cluster.close()

    def test_censored_feedback_records_one_censor_stage_per_shard(self, tmp_path):
        """Censored feedback takes the service's door: it wrote to the matrix
        past it, recording a ``wal.append`` and no feedback stage."""
        tel = Telemetry()
        cluster = ServingCluster(2, 4, durability_dir=str(tmp_path), telemetry=tel)
        keys = [f"q{i}" for i in range(16)]
        cluster.add_tenant("t", keys)
        queries = np.arange(len(keys))
        shards = cluster.locate("t", queries)[0]
        assert len(set(shards.tolist())) == 2
        reg = tel.registry
        hints = np.ones(len(keys), dtype=np.int64)
        bounds = np.full(len(keys), 0.5)
        assert stage_delta(
            reg, lambda: cluster.observe_censored_batch("t", queries, hints, bounds)
        ) == {"censor": 2, "wal.append": 2}
        one = queries[shards == shards[0]]
        assert stage_delta(
            reg,
            lambda: cluster.observe_censored_batch("t", one, hints[one] + 1, bounds[one]),
        ) == {"censor": 1, "wal.append": 1}
        cluster.close()


# -- stats mirrors -------------------------------------------------------------


class TestStatsMirror:
    def test_serving_cells_match_recorder(self):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        serve_traffic(service, n_batches=6)
        recorded = service.stats()
        cells = serving_cells(tel.registry)
        assert cells["decisions"] == recorded.decisions
        assert cells["batches"] == recorded.batches
        assert cells["refreshes"] == recorded.refreshes
        assert cells["shed"] == recorded.shed
        assert cells["non_default"] / cells["decisions"] == pytest.approx(
            recorded.non_default_fraction
        )
        assert cells["wall_seconds"] == pytest.approx(recorded.wall_seconds)

    def test_totals_stay_exact_across_a_wrap_and_a_reset(self):
        tel = Telemetry()
        recorder = LatencyRecorder(tel.serving_metrics())

        def mirrored():
            return serving_cells(tel.registry)

        def histogram_count():
            return cell_total(tel.registry, "repro_batch_seconds")

        rng = np.random.default_rng(4)
        n = 2 * RECENT_BATCHES + 100  # the ring wraps twice; totals must not
        sizes = rng.integers(0, 9, n)
        for size in sizes.tolist():
            recorder.record(size, 1e-4, size // 3)
        recorder.record_shed(7)
        recorder.record_refresh()
        recorded = recorder.report()
        assert recorded.batches == n
        cells = mirrored()
        assert cells["decisions"] == recorded.decisions == int(sizes.sum())
        assert cells["batches"] == n
        assert cells["wall_seconds"] == pytest.approx(recorded.wall_seconds)
        assert cells["non_default"] / cells["decisions"] == pytest.approx(
            recorded.non_default_fraction
        )
        assert (cells["refreshes"], cells["shed"]) == (1, 7)
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
        assert mirrored()["decisions"] == recorded.decisions + extra
        assert mirrored()["batches"] == n + 50 + RECENT_BATCHES + 5
        assert histogram_count() == recorded.decisions + extra

    def test_fresh_recorder_reports_zero(self):
        stats = LatencyRecorder().report()
        assert stats.decisions == 0
        assert stats.throughput_qps == 0.0

    def test_cluster_cells_match_report_without_crashes(self):
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
        cells = ClusterMetrics(tel.registry)
        assert cell_total(tel.registry, "repro_decisions_total") == stats.cluster.decisions
        assert cells.routed_batches.value == stats.routed_batches
        assert shard_labels(tel.registry) == sorted(stats.per_shard)
        assert cells.shards.value == stats.n_shards
        assert cells.total_rows.value == stats.total_rows

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
        assert serving_cells(tel.registry)["wall_seconds"] == 0.5

    def test_backwards_clock_writes_no_negative_stage_seconds(self):
        import asyncio
        import itertools

        from repro.config import IngressConfig
        from repro.ingress import ServiceIngress

        ticks = itertools.count(1000.0, -1.0)  # one second back per read
        tel = Telemetry()
        service = ServingService(
            make_matrix(), clock=lambda: next(ticks), telemetry=tel
        )

        async def drive():
            config = IngressConfig(max_batch=8, max_wait_s=0.001)
            async with ServiceIngress(service, config) as ingress:
                return await ingress.serve_many(list(range(16)))

        assert len(asyncio.run(drive())) == 16
        family = tel.registry.get("repro_stage_seconds")
        sums = {key[0]: child.total for key, child in family.children()}
        assert {"shard.serve", "cache.lookup"} <= set(sums)
        assert all(total >= 0.0 for total in sums.values()), sums

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
        assert cell_total(tel.registry, "repro_decisions_total") == 12

        apart = Telemetry()
        left = ServingService(make_matrix(seed=1), telemetry=apart.labeled("a"))
        right = ServingService(make_matrix(seed=2), telemetry=apart.labeled("b"))
        left.serve_batch(np.arange(5))
        right.serve_batch(np.arange(7))
        assert (left.stats().decisions, right.stats().decisions) == (5, 7)
        assert cell_total(apart.registry, "repro_decisions_total") == 12


# -- counter conservation ------------------------------------------------------

N_QUERIES = {"a": 14, "b": 9}

OPS = st.one_of(
    st.tuples(st.just("serve_batch"), st.integers(0, 2**16)),
    st.tuples(st.just("serve_mixed"), st.integers(0, 2**16)),
    st.tuples(st.just("observe"), st.integers(0, 2**16)),
    st.tuples(st.just("censor"), st.integers(0, 2**16)),
    st.tuples(st.just("shed"), st.integers(0, 9)),
    st.tuples(st.just("kill"), st.integers(0, 4)),
    st.tuples(st.just("restart"), st.integers(0, 4)),
    st.tuples(st.just("down"), st.integers(0, 4)),
    st.tuples(st.just("up"), st.integers(0, 4)),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("tick"), st.just(0)),
    st.tuples(st.just("add_shard"), st.just(0)),
    st.tuples(st.just("reset"), st.integers(0, 4)),
)


#: :class:`ClusterStats` field -> the :class:`ClusterMetrics` cell it reports.
FACADE_CELLS = {
    "n_shards": "shards", "n_tenants": "tenants", "total_rows": "total_rows",
    "routed_batches": "routed_batches", "degraded_decisions": "degraded",
    "shed_decisions": "shed", "rebalanced_rows": "rebalanced_rows",
    "scheduler_ticks": "scheduler_ticks", "scheduler_refreshes": "scheduler_refreshes",
    "crashes": "crashes", "restarts": "restarts",
    "queued_feedback": "queued_feedback", "replayed_feedback": "replayed_feedback",
}


#: What a ``censor`` op may send in place of a valid bound.  ``True`` stands
#: for a batch of bools: among floats numpy reads it as 1.0, as it reads a
#: ``True`` among ids as 1.
HOSTILE_BOUNDS = (np.nan, np.inf, -np.inf, 0.0, -1.0, True)


def outage_view(cluster):
    """The outage queue as plain values (its entries hold arrays)."""
    return {
        sid: [(kind, *(cells.tolist() for cells in arrays)) for kind, *arrays in entries]
        for sid, entries in cluster._outage_queue.items()
    }


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
    against a plain-int tally, and the DOWN shards against a model of its
    own, after every step.  An UP shard that raises while serving fails the
    property: nothing turns its error into a degraded answer."""
    cluster = ServingCluster(3, 4, durability_dir=home, telemetry=telemetry)
    for tenant, n in N_QUERIES.items():
        # No row is seeded: ticks land on shards that own rows but have
        # observed nothing yet, which the scheduler must skip.
        cluster.add_tenant(tenant, [f"q{i}" for i in range(n)])
    tally = dict.fromkeys(
        ("routed", "served", "degraded", "shed", "crashes", "restarts"), 0
    )
    since_reset = {sid: 0 for sid in cluster.shard_ids}
    # DOWN shards: added by a kill or a mark down, removed by a restart or a mark up.
    down = set()
    # Per shard, what its dead journals appended (each one's view at the kill).
    dead_wal = {sid: [0, 0] for sid in cluster.shard_ids}
    registry = telemetry.registry if telemetry is not None else None
    before = counter_values(registry) if registry is not None else {}

    def count_arrivals(arrivals):
        tally["routed"] += 1
        for tenant, query in arrivals:
            shard = int(cluster.locate(tenant, [query])[0][0])
            if shard in down:
                tally["degraded"] += 1
            else:
                tally["served"] += 1
                since_reset[shard] += 1

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
        elif op == "censor":
            tenant, size = "ab"[arg % 2], int(rng.integers(1, 7))
            cells = (
                rng.integers(0, N_QUERIES[tenant], size=size), rng.integers(0, 4, size=size)
            )
            bounds = rng.uniform(0.01, 0.5, size=size).tolist()
            pick_bad = int(rng.integers(0, 2 * len(HOSTILE_BOUNDS)))
            if pick_bad >= len(HOSTILE_BOUNDS):
                cluster.observe_censored_batch(tenant, *cells, bounds)
            else:
                bad = HOSTILE_BOUNDS[pick_bad]
                if bad is True:
                    bounds = [True] * size
                else:
                    bounds[int(rng.integers(0, size))] = bad
                before_stats, queue = cluster.stats(), outage_view(cluster)
                records = [s.journal.appended_records for s in cluster.shards.values()]
                with pytest.raises(ClusterError):
                    cluster.observe_censored_batch(tenant, *cells, bounds)
                assert cluster.stats() == before_stats and outage_view(cluster) == queue
                assert [s.journal.appended_records for s in cluster.shards.values()] == records
        elif op == "shed":
            cluster.record_shed(arg)
            tally["shed"] += arg
        elif op == "kill" and not cluster.shards[pick].crashed:
            journal = cluster.shards[pick].journal
            dead_wal[pick][0] += journal.appended_records
            dead_wal[pick][1] += journal.appended_bytes
            cluster.kill_shard(pick)
            tally["crashes"] += 1
            down.add(pick)
        elif op == "restart" and cluster.shards[pick].crashed:
            cluster.restart_shard(pick)
            tally["restarts"] += 1
            since_reset[pick] = 0  # a recovered shard's view starts from zero
            down.discard(pick)  # it rejoins UP, whatever was marked before
        elif op == "down":
            cluster.mark_down(pick)
            down.add(pick)
        elif op == "up" and cluster.shards[pick].crashed:
            before_stats, queue = cluster.stats(), outage_view(cluster)
            with pytest.raises(ClusterError, match="restart_shard"):
                cluster.mark_up(pick)
            assert cluster.stats() == before_stats and outage_view(cluster) == queue
        elif op == "up":
            cluster.mark_up(pick)
            down.discard(pick)
        elif op == "checkpoint":
            cluster.checkpoint()
        elif op == "tick":
            cluster.tick()
        elif op == "add_shard" and cluster.n_shards < 5:
            if any(shard.crashed for shard in cluster.shards.values()):
                with pytest.raises(ClusterError):
                    cluster.add_shard()
            else:
                added = cluster.add_shard()
                since_reset[added], dead_wal[added] = 0, [0, 0]
        elif op == "reset":
            cluster.shards[pick].recorder().reset()
            since_reset[pick] = 0

        assert cluster.down_shards == sorted(down)
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
        cells = ClusterMetrics(registry)
        for field, cell in FACADE_CELLS.items():
            assert getattr(cells, cell).value == getattr(stats, field), field
        # The registry remembers what restarts and resets make a view forget.
        assert cell_total(registry, "repro_decisions_total") == tally["served"]
        assert shard_labels(registry) == sorted(stats.per_shard)
        decisions = registry.get("repro_decisions_total")
        for sid, view in stats.per_shard.items():
            assert decisions.labels(str(sid)).value >= view.decisions
        assert cell_total(registry, "repro_batch_seconds") == tally["served"]
        # A shard's WAL cells count every journal it ran, each from its open.
        for sid, shard in cluster.shards.items():
            live = (0, 0) if shard.crashed else (
                shard.journal.appended_records, shard.journal.appended_bytes
            )
            assert [
                registry.get(name).labels(str(sid)).value
                for name in ("repro_wal_records_total", "repro_wal_bytes_total")
            ] == [dead + now for dead, now in zip(dead_wal[sid], live)]
        after = counter_values(registry)
        assert all(after[cell] >= value for cell, value in before.items())
        before = after
    # Every cell queued during an outage is applied on the restart.
    for sid, shard in list(cluster.shards.items()):
        if shard.crashed:
            cluster.restart_shard(sid)
    stats = cluster.stats()
    assert stats.replayed_feedback == stats.queued_feedback
    assert not any(cluster._outage_queue.values())
    cluster.close()


# The tier-1 budget, unless pytest runs with ``--hypothesis-profile=chaos``.
CONSERVATION = (
    settings.default
    if settings.default is settings.get_profile("chaos")
    else settings(max_examples=100, deadline=None)
)


class TestCounterConservation:
    @CONSERVATION
    @given(ops=st.lists(OPS, max_size=40))
    def test_cluster_counters_conserve_under_interleavings(self, ops):
        with tempfile.TemporaryDirectory() as home:
            drive_cluster(ops, Telemetry(), home)

    @CONSERVATION
    @given(ops=st.lists(OPS, max_size=40))
    def test_counters_conserve_without_telemetry(self, ops):
        with tempfile.TemporaryDirectory() as home:
            drive_cluster(ops, None, home)


class TestOneStore:
    """Each count has one store: the registry cell the event increments."""

    def test_wal_cells_count_every_journal_of_a_shard(self, tmp_path):
        tel = Telemetry()
        cluster = ServingCluster(3, 4, durability_dir=str(tmp_path), telemetry=tel)
        journals = {sid: [] for sid in cluster.shard_ids}

        def note_journals():
            for sid, shard in cluster.shards.items():
                if not any(j is shard.journal for j in journals[sid]):
                    journals[sid].append(shard.journal)

        def check():
            for sid, owned in journals.items():
                label = str(sid)
                for name, view in (
                    ("repro_wal_records_total", "appended_records"),
                    ("repro_wal_bytes_total", "appended_bytes"),
                    ("repro_checkpoints_total", "checkpoints"),
                ):
                    cell = tel.registry.get(name).labels(label).value
                    assert cell == sum(getattr(j, view) for j in owned), (sid, name)

        rows = np.arange(12)
        cluster.add_tenant("t", [f"q{i}" for i in rows])  # each shard's import
        note_journals()
        assert all(journals[sid][0].appended_records == 1 for sid in journals)
        cluster.observe_batch("t", rows, np.zeros(12, dtype=np.int64), np.full(12, 0.1))
        check()
        cluster.kill_shard(0)
        cluster.restart_shard(0)
        note_journals()
        cluster.observe_batch("t", rows, np.ones(12, dtype=np.int64), np.full(12, 0.2))
        cluster.checkpoint()
        assert len(journals[0]) == 2
        check()
        cluster.close()

    def test_metric_catalog_matches_registered_families(self, tmp_path):
        import asyncio
        import re

        from repro.adaptive import ClusterAdaptationController
        from repro.config import IngressConfig
        from repro.ingress import ClusterIngress

        tel = Telemetry()
        cluster = ServingCluster(2, 4, durability_dir=str(tmp_path), telemetry=tel)
        rows = np.arange(8)
        cluster.add_tenant("t", [f"q{i}" for i in rows])
        cluster.observe_batch("t", rows, np.zeros(8, dtype=np.int64), np.full(8, 0.1))
        config = IngressConfig(max_batch=2, max_wait_s=60.0, refresh_interval_s=60.0)

        async def flush_once():
            async with ClusterIngress(cluster, config) as ingress:
                return await ingress.serve_many([("t", 0), ("t", 1)])

        asyncio.run(flush_once())
        controller = ClusterAdaptationController(cluster, lambda key, hint: 0.1)
        decisions = cluster.serve_batch("t", rows)
        controller.record("t", decisions, np.full(8, 0.1))
        controller.tick()
        cluster.stats()
        exported = set(re.findall(r"^# TYPE (\S+) ", tel.expose_text(), re.M))
        doc = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "observability.md")
        catalog = doc.read_text().split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
        assert exported == set(re.findall(r"`(repro_\w+)", catalog))
        cluster.close()


# -- snapshots -----------------------------------------------------------------


class TestSnapshots:
    def test_collect_snapshot_sections(self, tmp_path, monkeypatch):
        tel = Telemetry()
        service = ServingService(make_matrix(), telemetry=tel)
        serve_traffic(service, n_batches=3)
        snapshot = collect_snapshot(telemetry=tel, service=service)
        payload = snapshot.as_dict()
        assert payload["schema_version"] == 1
        assert payload["enabled"] is True
        assert "repro_decisions_total" in payload["metrics"]
        assert payload["serving"]["decisions"] > 0
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
        wal = snapshot.as_dict()["wal"]
        assert sorted(wal) == ["0", "1"]
        for section in wal.values():
            assert section["checkpoints"] == 1
            assert section["segment_count"] >= 1
        assert snapshot.as_dict()["health"] == {
            "up_shards": [0, 1], "down_shards": [], "n_up": 2, "n_down": 0
        }
        assert snapshot.as_dict()["scheduler"] == {
            "ticks": 1, "refreshes": 1, "skipped_down": 0
        }
        json.loads(snapshot.to_json())
        cluster.mark_down(1)
        assert collect_snapshot(cluster=cluster).as_dict()["health"] == {
            "up_shards": [0], "down_shards": [1], "n_up": 1, "n_down": 1
        }


DEFAULT_BUCKET_COUNT = len(DEFAULT_BUCKETS)


def test_default_buckets_match_config():
    assert Telemetry().serving_metrics().batch_seconds.bounds == DEFAULT_BUCKETS
    assert DEFAULT_BUCKET_COUNT == 19
