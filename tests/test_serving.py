"""Tests for the batched online serving subsystem (:mod:`repro.serving`).

The two load-bearing properties:

* batched decisions equal per-query :class:`PlanCache` decisions
  cell-for-cell (same hints, same default flags, same expected latencies),
  including after incremental updates and for censored / unobserved edge
  cases;
* a warm-started incremental ALS refresh converges to (at least) the same
  masked objective as a cold solve on the updated matrix.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from builders import predict_cells_in_chunks
from repro.config import ALSConfig
from repro.core.als import censored_als
from repro.core.plan_cache import CacheSnapshot, PlanCache
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import CompletionError, MatrixError, ServingError
from repro.experiments.serving import explored_matrix, serving_throughput_comparison
from repro.serving import (
    BatchedPlanCache,
    IncrementalALSRefresher,
    LatencyRecorder,
    ServingService,
)
from repro.serving.stats import RECENT_BATCHES


def make_matrix():
    matrix = WorkloadMatrix(5, 4)
    # Query 0: default 10s, a verified better hint at 4s.
    matrix.observe(0, 0, 10.0)
    matrix.observe(0, 2, 4.0)
    # Query 1: only the default observed.
    matrix.observe(1, 0, 5.0)
    # Query 2: a worse alternative observed.
    matrix.observe(2, 0, 2.0)
    matrix.observe(2, 3, 6.0)
    # Query 3: nothing observed at all (novel query).
    # Query 4: default unobserved but an alternative verified.
    matrix.observe(4, 1, 3.0)
    # A censored entry must never be served.
    matrix.observe_censored(0, 3, 1.0)
    return matrix


def assert_batch_matches_scalar(matrix):
    scalar = PlanCache(matrix)
    batched = BatchedPlanCache(matrix)
    decisions = batched.decide(np.arange(matrix.n_queries))
    expected = scalar.lookup_all()
    assert decisions.hints.tolist() == [d.hint for d in expected]
    assert decisions.used_default.tolist() == [d.used_default for d in expected]
    np.testing.assert_allclose(
        decisions.expected_latency, [d.expected_latency for d in expected]
    )


class TestBatchedEqualsScalar:
    def test_cell_for_cell_on_handcrafted_matrix(self):
        assert_batch_matches_scalar(make_matrix())

    def test_cell_for_cell_on_partially_observed_workload(
        self, partially_observed_matrix
    ):
        assert_batch_matches_scalar(partially_observed_matrix)

    def test_arbitrary_arrival_order_and_repeats(self):
        matrix = make_matrix()
        batched = BatchedPlanCache(matrix)
        scalar = PlanCache(matrix)
        arrivals = np.array([2, 0, 0, 4, 3, 1, 0])
        decisions = batched.decide(arrivals)
        assert decisions.hints.tolist() == [
            scalar.lookup(int(q)).hint for q in arrivals
        ]
        assert decisions.batch_size == arrivals.size


class TestSnapshotInvalidation:
    def test_new_observation_invalidates_snapshot(self):
        matrix = make_matrix()
        batched = BatchedPlanCache(matrix)
        before = batched.decide([1])
        assert before.hints[0] == 0  # only the default observed
        matrix.observe(1, 2, 1.0)  # a verified 5x improvement appears
        after = batched.decide([1])
        assert after.hints[0] == 2
        assert after.expected_latency[0] == pytest.approx(1.0)

    def test_snapshot_reused_while_matrix_unchanged(self):
        matrix = make_matrix()
        batched = BatchedPlanCache(matrix)
        batched.decide([0])
        snapshot = batched._scalar.cached_snapshot
        batched.decide([1, 2])
        assert batched._scalar.cached_snapshot is snapshot

    def test_version_counter_tracks_mutations(self):
        matrix = WorkloadMatrix(2, 2)
        v0 = matrix.version
        matrix.observe(0, 0, 1.0)
        matrix.observe_censored(0, 1, 2.0)
        matrix.observe_batch([1], [0], [3.0])
        matrix.add_query()
        matrix.invalidate([0])
        assert matrix.version == v0 + 5

    def test_snapshot_compute_matches_cache(self):
        matrix = make_matrix()
        snap = CacheSnapshot.compute(matrix)
        assert snap.version == matrix.version
        assert snap.hints[0] == 2


class TestObserveBatch:
    def test_matches_scalar_observe(self):
        a, b = WorkloadMatrix(3, 3), WorkloadMatrix(3, 3)
        queries, hints, latencies = [0, 1, 2], [1, 0, 2], [1.0, 2.0, 3.0]
        for q, h, lat in zip(queries, hints, latencies):
            a.observe(q, h, lat)
        b.observe_batch(queries, hints, latencies)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.to_dict()["values"], b.to_dict()["values"])

    def test_clears_censoring(self):
        matrix = WorkloadMatrix(2, 2)
        matrix.observe_censored(0, 1, 4.0)
        matrix.observe_batch([0], [1], [6.0])
        assert matrix.is_observed(0, 1)
        assert not matrix.is_censored(0, 1)
        assert matrix.timeout_matrix[0, 1] == 0.0

    def test_rejects_bad_input(self):
        matrix = WorkloadMatrix(2, 2)
        with pytest.raises(MatrixError):
            matrix.observe_batch([0], [0, 1], [1.0])
        with pytest.raises(MatrixError):
            matrix.observe_batch([5], [0], [1.0])
        with pytest.raises(MatrixError):
            matrix.observe_batch([0], [0], [float("inf")])


class TestVectorizedMatrixViews:
    def test_best_hint_array_matches_best_hint(self, partially_observed_matrix):
        matrix = partially_observed_matrix
        array = matrix.best_hint_array()
        for q in range(matrix.n_queries):
            scalar = matrix.best_hint(q)
            assert (scalar if scalar is not None else -1) == array[q]

    def test_row_minima_matches_row_min(self, partially_observed_matrix):
        matrix = partially_observed_matrix
        np.testing.assert_allclose(
            matrix.row_minima(),
            [matrix.row_stats([q])[0][0] for q in range(matrix.n_queries)],
        )

    def test_unobserved_row_yields_minus_one_and_inf(self):
        matrix = make_matrix()
        assert matrix.best_hint_array()[3] == -1
        assert matrix.row_minima()[3] == np.inf


class TestIncrementalALS:
    def test_warm_refresh_converges_to_cold_objective(self, tiny_workload):
        matrix = explored_matrix(tiny_workload, observed_fraction=0.3, seed=1)
        config = ALSConfig(rank=3, iterations=15, seed=0)
        refresher = IncrementalALSRefresher(config)
        refresher.refresh(matrix)

        rng = np.random.default_rng(5)
        rows = rng.integers(0, matrix.n_queries, 25)
        cols = rng.integers(0, matrix.n_hints, 25)
        matrix.observe_batch(rows, cols, tiny_workload.true_latencies[rows, cols])

        warm = refresher.refresh(matrix)
        cold = censored_als(
            np.where(matrix.mask > 0, matrix.to_dict()["values"], 0.0),
            matrix.mask,
            matrix.timeout_matrix,
            config=config,
        )
        assert refresher.cold_solves == 1
        assert refresher.warm_refreshes == 1
        # The warm refresh must land within 10% of the cold objective (it
        # usually lands below it: warm starts skip the cold-start transient).
        assert warm.objective_trace[-1] <= cold.objective_trace[-1] * 1.10

    def test_refresh_is_noop_when_matrix_unchanged(self, tiny_workload):
        matrix = explored_matrix(tiny_workload, observed_fraction=0.2, seed=2)
        refresher = IncrementalALSRefresher(ALSConfig(rank=3, iterations=5))
        first = refresher.refresh(matrix)
        again = refresher.refresh(matrix)
        assert again is first
        assert refresher.cold_solves == 1

    def test_warm_start_survives_workload_growth(self, tiny_workload):
        matrix = explored_matrix(tiny_workload, observed_fraction=0.3, seed=3)
        config = ALSConfig(rank=3, iterations=10, seed=0)
        refresher = IncrementalALSRefresher(config)
        refresher.refresh(matrix)
        new_row = matrix.add_query()
        matrix.observe(new_row, 0, 7.5)
        result = refresher.refresh(matrix)
        assert refresher.warm_refreshes == 1
        assert result.completed.shape == matrix.shape

    def test_different_matrix_object_starts_cold(self, tiny_workload):
        config = ALSConfig(rank=3, iterations=5, seed=0)
        refresher = IncrementalALSRefresher(config)
        m1 = explored_matrix(tiny_workload, observed_fraction=0.3, seed=1)
        m2 = explored_matrix(tiny_workload, observed_fraction=0.3, seed=9)
        assert m1.version == m2.version  # same mutation count, different data
        r1 = refresher.refresh(m1)
        r2 = refresher.refresh(m2)
        assert r2 is not r1
        assert refresher.cold_solves == 2

    def test_diverged_warm_factors_fall_back_to_one_cold_solve(self, tiny_workload):
        # What killed adapt_drift at seed 84: warm factors grown to ~1e9 put
        # 1e18 in the r x r Gram, where the ridge (0.2) is below one ulp, and
        # numpy's bare "Singular matrix" escaped through the refresher.
        matrix = explored_matrix(tiny_workload, observed_fraction=0.3, seed=1)
        q, h = np.argwhere(matrix.mask == 0)[0]
        matrix.observe_censored(int(q), int(h), 3.0)
        config = ALSConfig(rank=3, iterations=10, seed=0)
        refresher = IncrementalALSRefresher(config)
        first = refresher.refresh(matrix)
        first.query_factors = np.ones_like(first.query_factors)
        first.hint_factors = np.full_like(first.hint_factors, 1e9)
        with pytest.raises(CompletionError, match="Gram"):
            censored_als(
                matrix.values, matrix.mask, matrix.timeout_matrix,
                config=config, warm_start=first.factors, iterations=3,
            )
        matrix.observe(0, 1, 2.0)
        result = refresher.refresh(matrix)
        assert np.isfinite(result.completed).all()
        assert np.abs(result.hint_factors).max() < 1e3
        assert (refresher.cold_solves, refresher.warm_refreshes) == (2, 0)

    def test_warm_start_validation(self):
        observed = np.ones((4, 3))
        mask = np.ones((4, 3))
        good = censored_als(observed, mask, config=ALSConfig(rank=2, iterations=2))
        with pytest.raises(CompletionError):
            censored_als(
                observed,
                mask,
                config=ALSConfig(rank=3, iterations=2),
                warm_start=(good.query_factors, good.hint_factors),
            )
        with pytest.raises(CompletionError):
            censored_als(
                observed,
                mask,
                config=ALSConfig(rank=2, iterations=2),
                warm_start=(np.ones((9, 2)), good.hint_factors),
            )
        with pytest.raises(CompletionError):
            censored_als(
                observed, mask, config=ALSConfig(rank=2, iterations=2), iterations=0
            )


class TestServingService:
    def test_serve_and_feedback_roundtrip(self):
        matrix = make_matrix()
        service = ServingService(matrix)
        first = service.serve_batch([1])
        assert first.hints[0] == 0
        service.observe_batch([1], [2], [0.5])
        second = service.serve_batch([1])
        assert second.hints[0] == 2
        stats = service.stats()
        assert stats.decisions == 2
        assert stats.batches == 2

    def test_stats_counts_and_hit_rate(self):
        matrix = make_matrix()
        ticks = iter(np.arange(0.0, 10.0, 0.5))
        service = ServingService(matrix, clock=lambda: float(next(ticks)))
        service.serve_batch([0, 0, 1, 2])  # one non-default decision per [0]
        stats = service.stats()
        assert stats.decisions == 4
        assert stats.non_default_fraction == pytest.approx(0.5)
        assert stats.wall_seconds == pytest.approx(0.5)
        assert stats.throughput_qps == pytest.approx(8.0)
        assert stats.p50_latency_s == pytest.approx(0.125)

    def test_out_of_range_batch_raises(self):
        service = ServingService(make_matrix())
        with pytest.raises(ServingError):
            service.serve_batch([99])

    @pytest.mark.parametrize(
        "ids", [[1.7], [True], ["3"], [float("nan")], [None], [[0, 1]], 1, [-1]]
    )
    def test_ids_are_integers_or_a_typed_error(self, ids):
        """``1.7`` must not be served, or written and journaled, as row 1."""
        matrix = make_matrix()
        service = ServingService(matrix)
        version, values = matrix.version, matrix.values.copy()
        with pytest.raises(ServingError):
            service.serve_batch(ids)
        size = np.asarray(ids, dtype=object).size
        with pytest.raises(MatrixError):  # the service's write door is the matrix's
            service.observe_batch(ids, [1] * size, [0.5] * size)
        with pytest.raises(MatrixError):
            service.observe_batch([1] * size, ids, [0.5] * size)
        assert service.stats().decisions == 0 and matrix.version == version
        np.testing.assert_array_equal(matrix.values, values)

    def test_empty_recorder_reports_zeros(self):
        stats = LatencyRecorder().report()
        assert stats.decisions == 0
        assert stats.throughput_qps == 0.0

    def test_empty_feedback_batch_is_a_no_op(self):
        matrix = make_matrix()
        service = ServingService(matrix)
        version = matrix.version
        service.observe_batch([], [], [])
        assert matrix.version == version

    def test_percentiles_match_expanded_population(self):
        recorder = LatencyRecorder()
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 40, 20)
        seconds = rng.random(20) * 1e-3
        for size, sec in zip(sizes, seconds):
            recorder.record(int(size), float(sec), 0)
        stats = recorder.report()
        expanded = np.repeat(seconds / sizes, sizes)
        p50, p99 = np.percentile(expanded, [50.0, 99.0])
        assert stats.p50_latency_s == pytest.approx(p50)
        assert stats.p99_latency_s == pytest.approx(p99)

    def test_recorder_totals_stay_exact_past_the_window(self):
        rng = np.random.default_rng(1)
        n = 3 * RECENT_BATCHES + 17  # wraps, and not on a window boundary
        sizes = rng.integers(0, 40, n)  # empty batches included
        seconds = rng.random(n) * 1e-3
        non_default = rng.integers(0, sizes + 1)
        recorder = LatencyRecorder()
        for row in zip(sizes.tolist(), seconds.tolist(), non_default.tolist()):
            recorder.record(*row)
        recorder.record_refresh()
        recorder.record_shed(5)
        stats = recorder.report()
        assert stats.decisions == int(sizes.sum())
        assert stats.batches == n
        assert stats.wall_seconds == pytest.approx(float(seconds.sum()), rel=1e-12)
        assert stats.non_default_fraction == pytest.approx(
            non_default.sum() / sizes.sum(), rel=1e-12
        )
        assert stats.throughput_qps == pytest.approx(sizes.sum() / seconds.sum())
        assert (stats.refreshes, stats.shed) == (1, 5)
        # Percentiles: exactly those of the retained window's population.
        kept_sizes, kept_seconds = sizes[-RECENT_BATCHES:], seconds[-RECENT_BATCHES:]
        served = kept_sizes > 0
        expanded = np.repeat(
            kept_seconds[served] / kept_sizes[served], kept_sizes[served]
        )
        p50, p99 = np.percentile(expanded, [50.0, 99.0])
        assert stats.p50_latency_s == pytest.approx(p50)
        assert stats.p99_latency_s == pytest.approx(p99)

    def test_recorder_memory_is_constant_in_batches_recorded(self):
        recorder = LatencyRecorder()

        def one_window():
            for i in range(RECENT_BATCHES):
                recorder.record(4, 1e-4 + i * 1e-9, 2)
            recorder.report()
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            recorder.record(4, 1e-4, 2)  # allocate whatever is lazy
            first = one_window()
            one_window()
            third = one_window()
        finally:
            tracemalloc.stop()
        assert abs(third - first) < 512  # bytes, over 8192 more batches
        assert recorder.report().batches == 3 * RECENT_BATCHES + 1

    def test_reset_restarts_totals_and_window(self):
        recorder = LatencyRecorder()
        for _ in range(RECENT_BATCHES + 3):
            recorder.record(2, 1.0, 1)
        recorder.reset()
        assert recorder.report().decisions == 0
        recorder.record(10, 0.5, 0)
        stats = recorder.report()
        assert (stats.decisions, stats.batches) == (10, 1)
        assert stats.p50_latency_s == pytest.approx(0.05)  # no stale samples

    def test_record_shed_rejects_what_is_not_a_count(self):
        # The service is where a shed count enters a single-service stack:
        # -3 used to decrement the total silently.
        service = ServingService(WorkloadMatrix(4, 3))
        for count in (-3, True, 2.5, "4", None):
            with pytest.raises(ServingError):
                service.record_shed(count)
        service.record_shed(np.int64(2))
        assert service.stats().shed == 2

    def test_facade_integration(self, tiny_workload):
        from repro.core.explorer import MatrixOracle
        from repro.core.limeqo import LimeQO
        from repro.core.policies import RandomPolicy

        oracle = MatrixOracle(tiny_workload.true_latencies)
        limeqo = LimeQO(
            n_hints=tiny_workload.n_hints,
            oracle=oracle,
            policy=RandomPolicy(),
        )
        for i in range(8):
            limeqo.register_query(f"q{i}")
        limeqo.explore(time_budget=50.0)
        service = ServingService(limeqo.matrix)
        decisions = service.serve_all()
        assert decisions.hints.tolist() == [d.hint for d in limeqo.plan_cache().lookup_all()]


class TestBatchedTCNNInference:
    def test_predict_cells_in_small_forwards_matches_one(self, tiny_workload, fast_tcnn_config):
        from repro.nn.trainer import TCNNTrainer

        matrix = explored_matrix(tiny_workload, observed_fraction=0.2, seed=4)
        store = tiny_workload.feature_store()
        trainer = TCNNTrainer(
            store, matrix.n_queries, matrix.n_hints, config=fast_tcnn_config
        )
        trainer.fit(matrix)
        cells = [(0, 0), (1, 3), (2, 7), (3, 1), (4, 4)]
        np.testing.assert_allclose(
            predict_cells_in_chunks(trainer, cells, 2),
            trainer.predict_cells(cells),
        )


class TestThroughputExperiment:
    def test_comparison_reports_identical_decisions(self, tiny_workload):
        report = serving_throughput_comparison(
            tiny_workload, batch_size=64, n_batches=4
        )
        assert report["identical"] == 1.0
        assert report["decisions"] == 256.0
        assert report["batched_qps"] > 0
