"""``ServingCluster.serve_mixed`` is one Python pass; the array door is its judge.

A mixed flush checks and buckets its arrivals in plain Python and reads each
shard's decisions from the snapshot's row lists.  The independent reference
is the array path it replaced: the same arrivals served tenant by tenant
through ``serve_batch`` and regathered into arrival order.  ``split_batch``
(a counting split now) is judged by a copy of its old ``argsort`` +
``np.split`` definition.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterShard, ServingCluster, split_batch
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ClusterError
from repro.experiments.cluster import populate_cluster
from repro.serving.batch_cache import BatchDecisions
from repro.telemetry import Telemetry

N_HINTS = 6
SIZES = {"a": 23, "b": 9, "c": 41}
ID_TYPES = (int, np.int16, np.int64)


def seeded_matrix(n, seed):
    rng = np.random.default_rng(seed)
    matrix = WorkloadMatrix(n, N_HINTS)
    observed = rng.random((n, N_HINTS)) < 0.4
    observed[:, 0] = True
    rows, cols = np.nonzero(observed)
    matrix.observe_batch(rows, cols, rng.uniform(0.5, 20.0, rows.size))
    return matrix


def build_cluster(home, telemetry=None):
    cluster = ServingCluster(
        4, N_HINTS, durability_dir=home, telemetry=telemetry, failure_threshold=2
    )
    for seed, (tenant, n) in enumerate(SIZES.items()):
        populate_cluster(cluster, tenant, seeded_matrix(n, seed))
    return cluster


def per_tenant_reference(cluster, arrivals):
    """The arrivals served tenant by tenant through the array door,
    regathered into arrival order."""
    n = len(arrivals)
    out = BatchDecisions(
        queries=np.empty(n, dtype=np.int64),
        hints=np.empty(n, dtype=np.int64),
        used_default=np.empty(n, dtype=bool),
        expected_latency=np.empty(n),
    )
    for tenant in sorted({tenant for tenant, _ in arrivals}):
        mine = [i for i, (owner, _) in enumerate(arrivals) if owner == tenant]
        sub = cluster.serve_batch(tenant, [int(arrivals[i][1]) for i in mine])
        out.queries[mine] = sub.queries
        out.hints[mine] = sub.hints
        out.used_default[mine] = sub.used_default
        out.expected_latency[mine] = sub.expected_latency
    return out


def assert_same_decisions(got, want):
    for field in ("queries", "hints", "used_default", "expected_latency"):
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine.dtype == theirs.dtype, field
        np.testing.assert_array_equal(mine, theirs, err_msg=field)


def draw_arrivals(rng, sizes, count):
    tenants = list(sizes)
    return [
        (tenant, ID_TYPES[int(kind)](rng.integers(0, sizes[tenant])))
        for tenant, kind in zip(
            rng.choice(tenants, size=count), rng.integers(0, len(ID_TYPES), size=count)
        )
    ]


def assert_counters_conserve(cluster, registry):
    stats = cluster.stats()
    per_shard = sum(view.decisions for view in stats.per_shard.values())
    assert stats.cluster.decisions == per_shard
    # The registry's cells outlive restarts, so they count every served row.
    served = sum(
        child.value for _, child in registry.get("repro_decisions_total").children()
    )
    assert registry.get("repro_batch_seconds").merged_child().count == served


STEPS = st.one_of(
    st.tuples(st.just("flush"), st.integers(0, 2**16), st.integers(0, 600)),
    st.tuples(st.just("flush"), st.integers(0, 2**16), st.integers(0, 12)),
    st.tuples(st.just("down"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("up"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("kill"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("restart"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("observe"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.just("add_queries"), st.integers(0, 2), st.integers(1, 5)),
    st.tuples(st.just("add_shard"), st.just(0), st.just(0)),
)


class TestOnePassEqualsTheArrayDoor:
    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(STEPS, min_size=1, max_size=10))
    def test_mixed_flushes_equal_per_tenant_batches_through_every_change(self, steps):
        telemetry = Telemetry()
        with tempfile.TemporaryDirectory() as left, tempfile.TemporaryDirectory() as right:
            # Built alike; one is asked through serve_mixed (telemetry on: there
            # is no second body for it to fall back to), one through serve_batch.
            mixed, judge = build_cluster(left, telemetry), build_cluster(right)
            sizes = dict(SIZES)
            try:
                for kind, a, b in (*steps, ("flush", 1, 40)):
                    for cluster in (mixed, judge):
                        self.apply(cluster, sizes, kind, a, b)
                    if kind == "add_queries" and not any(
                        shard.crashed for shard in mixed.shards.values()
                    ):
                        sizes[list(sizes)[a]] += b
                    if kind == "flush":
                        arrivals = draw_arrivals(np.random.default_rng(a), sizes, b)
                        assert_same_decisions(
                            mixed.serve_mixed(arrivals),
                            per_tenant_reference(judge, arrivals),
                        )
                        assert_counters_conserve(mixed, telemetry.registry)
                ours, theirs = mixed.stats(), judge.stats()
                assert ours.degraded_decisions == theirs.degraded_decisions
                for sid, view in ours.per_shard.items():
                    other = theirs.per_shard[sid]
                    # (Equal counts: the fraction is one integer over the other.)
                    assert (view.decisions, view.non_default_fraction) == (
                        other.decisions,
                        other.non_default_fraction,
                    )
            finally:
                mixed.close()
                judge.close()

    @staticmethod
    def apply(cluster, sizes, kind, a, b):
        sid = cluster.shard_ids[a % cluster.n_shards]
        crashed = [s for s, shard in cluster.shards.items() if shard.crashed]
        if kind == "down":
            cluster.mark_down(sid)
        elif kind == "up" and not cluster.shards[sid].crashed:
            cluster.mark_up(sid)
        elif kind == "kill" and not cluster.shards[sid].crashed:
            cluster.kill_shard(sid)
        elif kind == "restart" and cluster.shards[sid].crashed:
            cluster.restart_shard(sid)
        elif kind == "observe":
            # A write: the next flush reads row lists of a patched snapshot.
            rng = np.random.default_rng(a)
            tenant = list(sizes)[a % len(sizes)]
            cluster.observe_batch(
                tenant,
                rng.integers(0, sizes[tenant], size=5),
                rng.integers(0, N_HINTS, size=5),
                rng.uniform(0.01, 0.4, size=5),
            )
        elif kind == "add_queries" and not crashed:
            tenant = list(sizes)[a]
            first = cluster.n_queries(tenant)
            cluster.add_queries(tenant, [f"late{first + i}" for i in range(b)])
        elif kind == "add_shard" and not crashed and cluster.n_shards < 6:
            cluster.add_shard()

    def test_row_lists_follow_a_write_by_its_rows_and_a_new_row_set_whole(self):
        cluster = build_cluster(None)
        arrivals = [("a", q) for q in range(SIZES["a"])]
        before = cluster.serve_mixed(arrivals)
        shard_id, row = (int(x[0]) for x in cluster.locate("a", [3]))
        cache = cluster.shards[shard_id].service.cache

        def lists_equal_the_snapshot():
            snap = cache.current()
            arrays = (snap.hints, snap.used_default, snap.expected_latency)
            assert cache._row_lists == tuple(array.tolist() for array in arrays)
            assert [type(column[0]) for column in cache._row_lists] == [int, bool, float]

        lists_equal_the_snapshot()
        lists = cache._row_lists
        assert lists[0][row] == before.hints[3] != 4
        # Two writes with an array-door read between them: the lists lag two
        # snapshots behind, and catch up by the rows written, in place.
        cluster.observe_batch("a", [3], [4], [0.001])  # now the best plan of row 3
        cluster.serve_batch("a", [3])
        shards, _ = cluster.locate("a", np.arange(SIZES["a"]))
        neighbour = int(np.flatnonzero(shards == shard_id)[-1])  # same shard, not query 3
        cluster.observe_batch("a", [neighbour], [2], [0.002])
        after = cluster.serve_mixed(arrivals)
        assert cache._row_lists is lists and lists[0][row] == 4
        lists_equal_the_snapshot()
        assert after.hints[3] == 4 and after.hints[neighbour] == 2 != before.hints[neighbour]
        assert_same_decisions(after, cluster.serve_batch("a", np.arange(SIZES["a"])))
        # New rows: indices no longer line up, the lists start over.
        cluster.add_queries("a", [f"late{i}" for i in range(8)])
        cluster.serve_mixed([("a", q) for q in range(SIZES["a"] + 8)])
        assert cache._row_lists is not lists
        lists_equal_the_snapshot()


class TestTheWholeBatchIsCheckedFirst:
    @pytest.mark.parametrize(
        "bad",
        [
            ("a", SIZES["a"]),
            ("a", -1),
            ("a", 1.0),
            ("a", True),
            ("a", np.bool_(True)),
            ("a", "3"),
            ("a", None),
            ("nobody", 0),
            (["a"], 0),
            ("a", 1, 2),
            ("a",),
            "a",
            7,
        ],
    )
    def test_a_rejected_batch_moves_no_counter_and_asks_no_shard(self, bad, monkeypatch):
        telemetry = Telemetry()
        cluster = build_cluster(None, telemetry)
        cluster.serve_mixed([("a", 1), ("b", 2)])
        asked = []
        monkeypatch.setattr(
            ClusterShard, "serve_rows", lambda self, rows: asked.append(self.shard_id)
        )

        def counters():
            registry = telemetry.registry
            return {
                (name, key): child.value
                for name in registry.names
                if registry.get(name).kind == "counter"
                for key, child in registry.get(name).children()
            }

        before = counters()
        with pytest.raises(ClusterError):
            cluster.serve_mixed([("a", 0), ("c", 40), bad])  # the last one is bad
        assert asked == [] and counters() == before

    def test_errors_name_the_tenant_and_its_own_bound(self):
        cluster = build_cluster(None)
        with pytest.raises(ClusterError, match=r"-1 out of range \[0, 9\) for tenant 'b'"):
            cluster.serve_mixed([("c", 30), ("b", -1)])
        with pytest.raises(ClusterError, match=r"integers, got 1\.5 for tenant 'c'"):
            cluster.serve_mixed([("c", 1.5)])
        with pytest.raises(ClusterError, match=r"\(tenant, query\) pair: \('a', 1, 2\)"):
            cluster.serve_mixed([("a", 1, 2)])
        with pytest.raises(ClusterError, match="pair: 'job'"):
            cluster.serve_mixed(["job"])
        with pytest.raises(ClusterError, match="unknown tenant"):
            cluster.serve_mixed([({"a"}, 1)])


class TestShardGroups:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 40))
    def test_shards_are_asked_once_each_in_ascending_id(self, seed, count):
        cluster = build_cluster(None)
        arrivals = draw_arrivals(np.random.default_rng(seed), SIZES, count)
        owners = [int(cluster.locate(t, [int(q)])[0][0]) for t, q in arrivals]
        asked = []
        real = ClusterShard.serve_rows

        def spy(self, rows):
            asked.append((self.shard_id, len(rows)))
            return real(self, rows)

        ClusterShard.serve_rows = spy
        try:
            cluster.serve_mixed(arrivals)
        finally:
            ClusterShard.serve_rows = real
        assert asked == [(sid, owners.count(sid)) for sid in sorted(set(owners))]
        assert cluster.stats().fan_out == len(asked)

    def test_a_failing_shard_degrades_and_trips_its_breaker(self):
        cluster = build_cluster(None)  # failure_threshold=2
        arrivals = [(t, q) for t, n in SIZES.items() for q in range(n)]
        owners = np.array([int(cluster.locate(t, [q])[0][0]) for t, q in arrivals])
        victim = int(owners[0])
        healthy = cluster.serve_mixed(arrivals)
        cluster.shards[victim].service = None  # serve_rows raises ClusterError
        for flush in (1, 2, 3):
            got = cluster.serve_mixed(arrivals)
            assert got.used_default[owners == victim].all()
            assert (got.hints[owners == victim] == cluster.default_hint).all()
            assert np.isinf(got.expected_latency[owners == victim]).all()
            np.testing.assert_array_equal(
                got.hints[owners != victim], healthy.hints[owners != victim]
            )
            # Two failures trip it; after that it is skipped, not asked.
            assert cluster.health.is_up(victim) == (flush < 2)
        assert cluster.stats().degraded_decisions == 3 * int((owners == victim).sum())


# -- split_batch ---------------------------------------------------------------


def old_split_batch(shard_ids):
    """``split_batch`` as it was: stable argsort, boundaries by ``diff``."""
    shard_ids = np.asarray(shard_ids, dtype=np.int64)
    order = np.argsort(shard_ids, kind="stable")
    sorted_ids = shard_ids[order]
    boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
    groups = np.split(order, boundaries)
    return [(int(shard_ids[g[0]]), g) for g in groups if g.size]


SHARD_IDS = st.one_of(
    st.lists(st.integers(0, 5), max_size=80),
    st.lists(st.sampled_from([0, 3, 17, 2**15 - 1]), max_size=40),  # gaps
    # Past 16 bits: narrowing these would fold 2**16 + 3 onto shard 3.
    st.lists(st.sampled_from([3, 2**15, 2**15 + 1, 2**16 + 3]), min_size=1, max_size=40),
)


class TestSplitBatch:
    @settings(max_examples=150, deadline=None)
    @given(ids=SHARD_IDS, dtype=st.sampled_from([np.int64, np.int32, np.uint16]))
    def test_counting_split_equals_the_sorting_definition(self, ids, dtype):
        ids = np.array(ids, dtype=np.int64).astype(dtype)
        got, want = split_batch(ids), old_split_batch(ids)
        assert [sid for sid, _ in got] == [sid for sid, _ in want]
        assert all(type(sid) is int for sid, _ in got)
        for (_, mine), (_, theirs) in zip(got, want):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)

    def test_negative_ids_and_matrices_are_refused(self):
        with pytest.raises(ClusterError, match=">= 0"):
            split_batch(np.array([0, -1, 2]))
        with pytest.raises(ClusterError, match="1-D"):
            split_batch(np.zeros((2, 2), dtype=np.int64))
        # One count per id up to the largest: a stray id is refused before
        # anything is sized by it (2**62 was "array is too big", 2**33 64 GiB).
        for stray in (2**20, 2**33, 2**62):
            with pytest.raises(ClusterError, match=f"shard id {stray} is not an ordinal"):
                split_batch(np.array([1, stray, 0]))
        assert [sid for sid, _ in split_batch([2**20 - 1, 0])] == [0, 2**20 - 1]
        assert split_batch([]) == []
