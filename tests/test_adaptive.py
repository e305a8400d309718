"""Tests for the drift-aware adaptation layer (repro.adaptive)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    COOLDOWN_TICKS,
    DRIFT_THRESHOLD,
    EXPLORE_BATCH_SIZE,
    MIN_SAMPLES,
    PERSISTENT_HITS,
    RESPONSE_BUDGET_CELLS,
    TOLERANCE,
    UNSEEN_THRESHOLD,
    WINDOW,
    AdaptiveStats,
    ClusterAdaptationController,
    DriftDetector,
    ResidualWindow,
    RowOracle,
    drift_score,
    relative_residuals,
    unseen_rate,
)
from repro.cluster import ServingCluster
from repro.config import ALSConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import AdaptiveError
from repro.workloads import generate_workload
from repro.workloads.spec import WorkloadSpec

latencies = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)


@pytest.fixture()
def small_truth():
    spec = WorkloadSpec(
        name="adaptive-test",
        n_queries=50,
        n_hints=8,
        default_total=500.0,
        optimal_total=200.0,
        rank=4,
    )
    return generate_workload(spec, seed=7).true_latencies


TENANT = "t"


def build_cluster(truth):
    """A one-shard serving stack bootstrapped on ``truth`` (default column +
    best hints); tenant row ``i`` is query ``q<i>`` and shard row ``i``."""
    n, k = truth.shape
    cluster = ServingCluster(1, k)
    cluster.add_tenant(TENANT, [f"q{i}" for i in range(n)])
    rows = np.arange(n)
    cluster.observe_batch(TENANT, rows, np.zeros(n, dtype=np.int64), truth[:, 0])
    best = truth.argmin(axis=1)
    cluster.observe_batch(TENANT, rows, best, truth[rows, best])
    return cluster


# -- residual statistics --------------------------------------------------------
def test_relative_residuals_basics():
    expected = np.array([1.0, 2.0, np.inf])
    measured = np.array([1.0, 3.0, 5.0])
    residuals = relative_residuals(expected, measured)
    assert residuals[0] == 0.0
    assert residuals[1] == pytest.approx(0.5)
    assert np.isnan(residuals[2])
    with pytest.raises(AdaptiveError):
        relative_residuals(np.zeros(3), np.zeros(2))


def test_drift_score_zero_and_full():
    expected = np.full(100, 10.0)
    assert drift_score(relative_residuals(expected, expected), 0.35) == 0.0
    assert drift_score(relative_residuals(expected, expected * 3.0), 0.35) == 1.0
    # An all-unseen window carries no drift evidence.
    assert drift_score(relative_residuals(np.full(5, np.inf), np.ones(5)), 0.35) == 0.0
    with pytest.raises(AdaptiveError):
        drift_score(np.zeros(3), 0.0)


def test_unseen_rate():
    assert unseen_rate(np.array([])) == 0.0
    assert unseen_rate(np.array([1.0, np.inf, np.inf, 2.0])) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(
    expected=st.lists(latencies, min_size=1, max_size=64),
    scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    tolerance=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
)
def test_drift_score_properties(expected, scale, tolerance):
    """Windowed residual stats: bounds, monotone response, exact edges."""
    expected = np.asarray(expected)
    measured = expected * scale
    residuals = relative_residuals(expected, measured)
    score = drift_score(residuals, tolerance)
    assert 0.0 <= score <= 1.0
    # Uniform scaling makes every relative residual |scale - 1|:
    if abs(scale - 1.0) > tolerance * (1 + 1e-9):
        assert score == 1.0
    elif abs(scale - 1.0) < tolerance * (1 - 1e-9):
        assert score == 0.0
    # The score is invariant under sample permutation.
    permuted = np.random.default_rng(0).permutation(residuals)
    assert drift_score(permuted, tolerance) == score


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(latencies, min_size=1, max_size=200),
    capacity=st.integers(min_value=1, max_value=64),
)
def test_residual_window_matches_pure_stats(values, capacity):
    """A ring-buffered window reports exactly the stats of its last N samples."""
    expected = np.asarray(values)
    measured = expected * 2.0
    window = ResidualWindow(capacity)
    window.record(np.arange(expected.size), expected, measured)
    tail = expected[-capacity:]
    stats = window.stats(tolerance=0.35)
    assert stats.samples == min(expected.size, capacity)
    reference = drift_score(relative_residuals(tail, tail * 2.0), 0.35)
    assert stats.drift_score == pytest.approx(reference)


def test_residual_window_rows_and_clear():
    window = ResidualWindow(16)
    expected = np.array([10.0, 10.0, np.inf, 10.0])
    measured = np.array([10.0, 30.0, 5.0, 10.4])
    window.record(np.array([3, 7, 9, 4]), expected, measured)
    assert window.drifted_rows(0.35).tolist() == [7]
    assert window.unseen_rows().tolist() == [9]
    window.clear()
    assert len(window) == 0
    assert window.stats(0.35).samples == 0


# -- detector ---------------------------------------------------------------------
def test_detector_zero_drift_never_triggers():
    detector = DriftDetector()
    expected = np.full(WINDOW, 5.0)
    for _ in range(10):
        detector.record(np.arange(WINDOW), expected, expected)
        assert not detector.status().triggered
    assert detector.status().drift_score == 0.0


def test_detector_full_drift_always_triggers():
    detector = DriftDetector()
    expected = np.full(64, 5.0)
    detector.record(np.arange(64), expected, expected * 4.0)
    status = detector.status()
    assert status.drift_triggered and status.triggered
    assert status.drift_score == 1.0


def test_detector_drift_gate_ignores_unseen_samples():
    """A window dominated by unseen serves must not let one noisy
    measurement trip a drift invalidation (the gate counts residual-
    carrying samples only)."""
    detector = DriftDetector()
    expected = np.full(62, np.inf)
    expected[:2] = 10.0
    measured = np.full(62, 10.0)
    measured[0] = 30.0  # one noisy measurement among 60 unseen serves
    detector.record(np.arange(62), expected, measured)
    status = detector.status()
    assert status.samples == 62 >= MIN_SAMPLES and status.seen_samples == 2
    assert status.drift_score == pytest.approx(0.5)
    assert not status.drift_triggered
    assert status.unseen_triggered  # the unseen signal is the real story


def test_constants_are_a_consistent_configuration():
    """The thresholds and budgets are constants now; they must still be
    one configuration the detector and controller can run."""
    assert 1 <= MIN_SAMPLES <= WINDOW  # a full window can reach a verdict
    assert TOLERANCE > 0
    assert 0.0 < DRIFT_THRESHOLD <= 1.0 and 0.0 < UNSEEN_THRESHOLD <= 1.0
    assert 1 <= EXPLORE_BATCH_SIZE <= RESPONSE_BUDGET_CELLS
    assert COOLDOWN_TICKS >= 0 and PERSISTENT_HITS >= 1
    assert DriftDetector().window().capacity == WINDOW


def test_detector_needs_min_samples():
    detector = DriftDetector()
    expected = np.full(MIN_SAMPLES - 1, 5.0)
    detector.record(np.arange(expected.size), expected, expected * 4.0)
    assert not detector.status().triggered  # evidence, but not enough of it


def test_detector_unseen_and_new_row_signals():
    detector = DriftDetector()
    expected = np.where(np.arange(32) % 2 == 0, np.inf, 5.0)
    detector.record(np.arange(32), expected, np.full(32, 5.0))
    status = detector.status()
    assert status.unseen_triggered and not status.drift_triggered
    # Row growth alone can trigger too.
    other = DriftDetector()
    fine = np.full(32, 5.0)
    other.record(np.arange(32), fine, fine)
    other.note_row_count(100)
    other.note_row_count(140)
    assert other.status().new_row_fraction == pytest.approx(0.4)
    assert other.status().unseen_triggered
    other.reset()
    assert other.status().new_row_fraction == 0.0


# -- controller (a one-shard cluster: feedback enters through its controller) --
def controller_for(cluster, truth):
    """The cluster controller over ``cluster``, executing cells of ``truth``
    as it stands at call time (tests drift it in place)."""
    return ClusterAdaptationController(
        cluster, lambda key, hint: truth[int(key.split("/q", 1)[1]), hint]
    )


def feed(cluster, controller, truth, batches=2, queries=None):
    for _ in range(batches):
        if queries is None:
            decisions = cluster.serve_all(TENANT)
        else:
            decisions = cluster.serve_batch(TENANT, queries)
        controller.record(TENANT, decisions, truth[decisions.queries, decisions.hints])


def shard_controller(controller):
    """The one shard's response pipeline (built on the first recorded batch)."""
    return controller._controller_for(0)


def test_controller_zero_drift_never_responds(small_truth):
    cluster = build_cluster(small_truth)
    controller = controller_for(cluster, small_truth)
    for _ in range(5):
        feed(cluster, controller, small_truth, batches=1)
        assert not controller.tick()
    assert controller.report().responses == 0


def test_controller_full_drift_responds_and_recovers(small_truth):
    truth = small_truth.copy()
    cluster = build_cluster(truth)
    matrix = cluster.shards[0].matrix
    controller = controller_for(cluster, truth)
    before_version = matrix.version
    truth *= 3.0  # everything drifted
    feed(cluster, controller, truth)
    assert controller.tick() == [0]
    report = controller.report()
    assert report.responses == 1
    assert report.invalidated_rows > 0
    assert report.remeasured_cells > 0
    assert matrix.version > before_version
    # Invalidated rows now carry a *fresh* default observation.
    shard = shard_controller(controller)
    drifted = shard.last_response.invalidated
    for row in drifted[:5]:
        assert matrix.value(int(row), 0) == pytest.approx(truth[int(row), 0])
    # Backlog recovery keeps exploring on quiet ticks until re-verified.
    for _ in range(60):
        if not shard._backlog.size:
            break
        controller.tick()
    assert shard._backlog.size == 0
    assert controller.report().recovery_passes > 0


def test_controller_response_respects_budget(small_truth):
    truth = small_truth.copy()
    cluster = build_cluster(truth)
    controller = controller_for(cluster, truth)
    truth *= 3.0
    feed(cluster, controller, truth)
    assert controller.tick()
    plan = shard_controller(controller).last_response
    # Budget caps total live executions (explore may overshoot by < batch).
    assert plan.remeasured + plan.explored <= RESPONSE_BUDGET_CELLS + (EXPLORE_BATCH_SIZE - 1)
    assert plan.remeasured + plan.explored < small_truth.size  # the cap bit


def test_controller_cooldown_rate_limits(small_truth):
    truth = small_truth.copy()
    cluster = build_cluster(truth)
    controller = controller_for(cluster, truth)
    truth *= 3.0
    feed(cluster, controller, truth)
    assert controller.tick()
    for _ in range(COOLDOWN_TICKS):
        feed(cluster, controller, truth)
        assert not controller.tick()  # cooling down
    assert controller.report().responses == 1


def test_controller_never_serves_regression_after_drift(small_truth):
    """Post-response decisions are anchored to fresh default observations."""
    truth = small_truth.copy()
    cluster = build_cluster(truth)
    controller = controller_for(cluster, truth)
    truth *= 2.5
    feed(cluster, controller, truth)
    controller.tick()
    for _ in range(20):
        controller.tick()
    decisions = cluster.serve_all(TENANT)
    served = truth[decisions.queries, decisions.hints]
    defaults = truth[decisions.queries, 0]
    assert np.all(served <= defaults * (1.0 + 1e-9))


def test_controller_unseen_rows_get_anchored(small_truth):
    n, k = small_truth.shape
    # Ten brand-new rows appear (workload shift): no observations at all.
    truth = np.vstack([small_truth, small_truth[:10] * 1.5])
    cluster = build_cluster(truth[:n])
    controller = controller_for(cluster, truth)
    cluster.add_queries(TENANT, [f"q{i}" for i in range(n, n + 10)])
    new_rows = np.arange(n, n + 10)
    feed(cluster, controller, truth, batches=4, queries=np.arange(n + 10))
    assert controller.tick()
    assert controller.report().unseen_responses == 1
    for row in new_rows:
        assert cluster.shards[0].matrix.is_observed(int(row), 0)


def test_scoped_exploration_only_executes_scoped_rows(small_truth):
    """Recovery exploration cannot leak live executions onto healthy rows."""
    from repro.adaptive import OnlineReexplorer

    truth = small_truth
    n, k = truth.shape
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), truth[:, 0])
    executed = []

    def lookup(q, h):
        executed.append(q)
        return truth[q, h]

    reexplorer = OnlineReexplorer(matrix, RowOracle(lookup))
    scoped = np.array([3, 7, 11, 19])
    ran = reexplorer.explore(24, rows=scoped)
    assert ran > 0
    assert set(executed) <= set(scoped.tolist())
    # Empty scope is a no-op.
    assert reexplorer.explore(24, rows=np.zeros(0, dtype=np.int64)) == 0


def _reference_scoped_select(self, matrix, batch_size, rng):
    """``_RowScopedPolicy.select`` as it stood when it rebuilt a Python set of
    its rows on every step, kept verbatim."""
    scoped = set(int(r) for r in self._rows if r < matrix.n_queries)
    picks = [
        pair
        for pair in self.inner.select(matrix, batch_size, rng)
        if pair[0] in scoped
    ]
    if len(picks) >= batch_size:
        return picks[:batch_size]
    predicted = self.inner.last_prediction
    usable = predicted is not None and predicted.shape == matrix.shape
    unknown = matrix.unknown_mask()
    taken_rows = {pair[0] for pair in picks}
    for row in self._rows:
        if len(picks) >= batch_size:
            break
        row = int(row)
        if row not in scoped or row in taken_rows:
            continue
        columns = np.nonzero(unknown[row])[0]
        if columns.size == 0:
            continue
        if usable:
            column = int(columns[np.argmin(predicted[row, columns])])
        else:
            column = int(columns[0])
        picks.append((row, column))
        taken_rows.add(row)
    return picks


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    k=st.integers(2, 5),
    # Unsorted, repeated, and some past the end of the matrix (migrated away).
    rows=st.lists(st.integers(0, 15), min_size=1, max_size=10),
    batch_size=st.integers(1, 6),
    model_free=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_row_mask_scoping_picks_what_the_set_did(n, k, rows, batch_size, model_free, seed):
    from repro.adaptive.reexplore import _RowScopedPolicy
    from repro.core.policies import LimeQOPolicy, RandomPolicy

    truth = np.random.default_rng(seed).uniform(0.5, 20.0, (n + 1, k))
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), truth[:n, 0])

    def inner():
        return RandomPolicy() if model_free else LimeQOPolicy(als_config=ALSConfig(rank=2))

    # Two inner policies fed the same matrices and draws stay in step.
    policy, reference = _RowScopedPolicy(inner(), rows), _RowScopedPolicy(inner(), rows)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in range(5):
        picks = policy.select(matrix, batch_size, rng)
        assert picks == _reference_scoped_select(reference, matrix, batch_size, reference_rng)
        assert all(type(q) is int and type(h) is int for q, h in picks)
        for query, hint in picks:
            if (query + hint + step) % 3:
                matrix.observe(query, hint, float(truth[query, hint]))
            else:
                matrix.observe_censored(query, hint, float(truth[query, hint]) * 0.5)
        if step == 2:
            matrix.observe(matrix.add_query(), 0, 3.0)  # a scoped row may appear


def test_controller_recovery_stays_on_backlog_rows(small_truth):
    truth = small_truth.copy()
    cluster = build_cluster(truth)
    executed = []
    controller = ClusterAdaptationController(
        cluster,
        lambda key, hint: (executed.append(key), truth[int(key[3:]), hint])[1],
    )
    truth *= 3.0
    feed(cluster, controller, truth)
    assert controller.tick()
    shard = shard_controller(controller)
    touched = {f"{TENANT}/q{row}" for row in shard._backlog.tolist()} | {
        f"{TENANT}/q{row}" for row in shard.last_response.invalidated.tolist()
    }
    executed.clear()
    for _ in range(60):
        if not shard._backlog.size:
            break
        controller.tick()
    assert shard._backlog.size == 0
    assert set(executed) <= touched


def test_recovery_anchors_before_exploring():
    """A response bigger than its budget leaves unanchored rows; recovery
    passes must re-measure their defaults before any exploration lands on
    them, or the snapshot would serve unverified hints unconditionally."""
    spec = WorkloadSpec(
        name="adaptive-anchor",
        n_queries=2 * RESPONSE_BUDGET_CELLS + 20,
        n_hints=8,
        default_total=1480.0,
        optimal_total=600.0,
        rank=4,
    )
    truth = generate_workload(spec, seed=7).true_latencies.copy()
    cluster = build_cluster(truth)
    controller = controller_for(cluster, truth)
    truth *= 3.0  # every row drifts; one budget cannot anchor them in one go
    feed(cluster, controller, truth)
    assert controller.tick()
    matrix = cluster.shards[0].matrix
    shard = shard_controller(controller)
    assert shard.last_response.invalidated.size > RESPONSE_BUDGET_CELLS
    for _ in range(400):
        # Invariant at every step: a row carrying any non-default
        # observation must have its default observed too.
        for row in range(matrix.n_queries):
            if matrix.observed_count_in_row(row) and not matrix.is_observed(row, 0):
                non_default = [
                    h for h in range(1, matrix.n_hints)
                    if matrix.is_observed(row, h)
                ]
                assert not non_default, (
                    f"row {row} has non-default observations {non_default} "
                    "but no default anchor"
                )
        if not shard._backlog.size:
            break
        controller.tick()
    assert shard._backlog.size == 0


def test_adaptive_stats_merge_and_dict():
    a = AdaptiveStats(responses=1, explored_cells=10, last_drift_score=0.5)
    b = AdaptiveStats(responses=2, explored_cells=5, last_drift_score=0.2)
    merged = AdaptiveStats.merge([a, b])
    assert merged.responses == 3
    assert merged.explored_cells == 15
    assert merged.last_drift_score == 0.5
    payload = merged.as_dict()
    assert payload["responses"] == 3
    assert isinstance(payload["responses"], int)


def test_row_oracle_timeout_semantics():
    oracle = RowOracle(lambda q, h: 10.0)
    done = oracle.execute(0, 0)
    assert not done.timed_out and done.charged_time == 10.0
    censored = oracle.execute(0, 0, timeout=5.0)
    assert censored.timed_out and censored.charged_time == 5.0
    many = oracle.execute_many([0, 1], [0, 1], [None, 5.0])
    assert [r.timed_out for r in many] == [False, True]
    with pytest.raises(AdaptiveError):
        RowOracle("not-callable")


# -- cluster controller ---------------------------------------------------------------
def test_cluster_adaptation_responds_per_shard():
    spec = WorkloadSpec(
        name="cluster-adaptive",
        n_queries=80,
        n_hints=8,
        default_total=800.0,
        optimal_total=320.0,
        rank=4,
    )
    truth = generate_workload(spec, seed=3).true_latencies.copy()
    cluster = ServingCluster(3, 8)
    names = [f"q{i}" for i in range(80)]
    cluster.add_tenant("acme", names)
    rows = np.arange(80)
    cluster.observe_batch("acme", rows, np.zeros(80, dtype=np.int64), truth[:, 0])
    best = truth.argmin(axis=1)
    cluster.observe_batch("acme", rows, best, truth[rows, best])
    controller = ClusterAdaptationController(
        cluster, lambda key, hint: truth[int(key.split("/", 1)[1][1:]), hint]
    )
    truth *= 3.0  # cluster-wide drift
    for _ in range(2):
        decisions = cluster.serve_batch("acme", rows)
        controller.record(
            "acme", decisions, truth[decisions.queries, decisions.hints]
        )
    responded = controller.tick()
    assert responded, "no shard responded to a 3x cluster-wide drift"
    report = controller.report()
    assert report.responses >= len(responded)
    assert report.invalidated_rows > 0
    # Topology change wipes window epochs and shard controllers.
    controller.notify_topology_change()
    assert controller.shard_reports() == {}
    with pytest.raises(AdaptiveError):
        ClusterAdaptationController(cluster, "nope")
