"""Tests for the sharded multi-tenant serving cluster (:mod:`repro.cluster`).

The load-bearing properties:

* cluster decisions equal a single :class:`ServingService` over the union
  matrix cell-for-cell (sharding partitions rows; the serving rule is
  row-local), across mixed-tenant batches, rebalancing, and recovery;
* rendezvous routing is stable under shard addition -- a key either keeps
  its shard or moves to the new one (hypothesis-verified);
* a DOWN shard degrades to default plans without errors or regressions;
* background refresh scheduling runs one shard per tick, round-robin,
  skips DOWN shards, never runs ALS on the serve path, and counts a failed
  solve instead of raising it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import router_over
from repro.cluster import (
    ClusterShard,
    RefreshScheduler,
    RendezvousRouter,
    ServingCluster,
    routing_key,
    split_batch,
)
from repro.config import ALSConfig
from repro.core.plan_cache import DEFAULT_HINT, PlanCache
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ClusterError, MatrixError
from repro.experiments.cluster import cluster_vs_single_comparison, populate_cluster
from repro.serving import LatencyRecorder, ServingService
from repro.serving.stats import RECENT_BATCHES
from repro.telemetry import Telemetry


def make_union_matrix(n=40, k=8, seed=3, censored=True):
    """A partially observed matrix with the default column always known."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.5, 20.0, size=(n, k))
    matrix = WorkloadMatrix(n, k)
    observed = rng.random((n, k)) < 0.35
    observed[:, 0] = True
    rows, cols = np.nonzero(observed)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    if censored:
        for q, h in [(1, 3), (5, 2), (7, 4)]:
            if q < n and h < k and not matrix.is_observed(q, h):
                matrix.observe_censored(q, h, float(truth[q, h]) / 2.0)
    return matrix


def make_cluster(matrix, n_shards=3, tenant="acme", **kwargs):
    cluster = ServingCluster(
        n_shards=n_shards,
        n_hints=matrix.n_hints,
        als_config=ALSConfig(rank=2, iterations=3, seed=0),
        **kwargs,
    )
    populate_cluster(cluster, tenant, matrix)
    return cluster


# -- routing ---------------------------------------------------------------------


class TestRouter:
    def test_routing_is_deterministic_across_instances(self):
        keys = [f"t/q{i}" for i in range(50)]
        a = router_over([0, 1, 2])
        b = router_over([0, 1, 2])
        assert a.assign(keys).tolist() == b.assign(keys).tolist()

    def test_every_shard_gets_keys_eventually(self):
        router = router_over([0, 1, 2, 3])
        assigned = router.assign([f"t/q{i}" for i in range(400)])
        assert set(assigned.tolist()) == {0, 1, 2, 3}

    def test_tenant_namespaces_are_disjoint(self):
        # The same query name in different tenants is a different key and
        # may legitimately land on a different shard.
        assert routing_key("a", "q1") != routing_key("b", "q1")
        with pytest.raises(ClusterError):
            routing_key("", "q1")
        with pytest.raises(ClusterError):
            routing_key("a/b", "q1")

    def test_topology_errors(self):
        router = router_over([0])
        with pytest.raises(ClusterError):
            router.add_shard(0)
        with pytest.raises(ClusterError):
            RendezvousRouter().shard_for("t/q")

    @settings(max_examples=40, deadline=None)
    @given(
        n_keys=st.integers(min_value=1, max_value=60),
        n_shards=st.integers(min_value=1, max_value=6),
        salt=st.integers(min_value=0, max_value=1000),
    )
    def test_only_rebalanced_keys_move_on_shard_addition(
        self, n_keys, n_shards, salt
    ):
        keys = [f"t{salt}/q{i}" for i in range(n_keys)]
        router = router_over(range(n_shards))
        before = router.assign(keys)
        predicted_moves = set(router.moves_for_new_shard(keys, n_shards))
        router.add_shard(n_shards)
        after = router.assign(keys)
        for key, old, new in zip(keys, before, after):
            if key in predicted_moves:
                assert new == n_shards
            else:
                # Stability: a key never shuffles between the old shards.
                assert new == old

    def test_split_batch_groups_and_regathers(self):
        shard_ids = np.array([2, 0, 2, 1, 0, 2])
        groups = split_batch(shard_ids)
        assert {sid for sid, _ in groups} == {0, 1, 2}
        seen = np.concatenate([g for _, g in groups])
        assert sorted(seen.tolist()) == list(range(6))
        for sid, positions in groups:
            assert (shard_ids[positions] == sid).all()

    def test_split_batch_rejects_2d(self):
        with pytest.raises(ClusterError):
            split_batch(np.zeros((2, 2), dtype=np.int64))


# -- shard lifecycle ----------------------------------------------------------------


class TestClusterShard:
    def test_rows_roundtrip_between_shards(self):
        union = make_union_matrix()
        a = ClusterShard(0, union.n_hints)
        keys = [f"t/q{i}" for i in range(union.n_queries)]
        a.import_rows({**union.export_rows(range(union.n_queries)),
                       "query_names": keys})
        moved = keys[5:15]
        payload = a.export_rows(moved)
        a.remove_rows(moved)
        b = ClusterShard(1, union.n_hints)
        b.import_rows(payload)
        assert a.n_rows == union.n_queries - 10
        assert b.n_rows == 10
        # The moved rows carry their full observation state.
        for offset, key in enumerate(moved):
            q = 5 + offset
            np.testing.assert_array_equal(
                b.matrix.values[b.local_row(key)], union.values[q]
            )
            np.testing.assert_array_equal(
                b.matrix.censored_mask[b.local_row(key)], union.censored_mask[q]
            )
        # Remaining rows on the source re-indexed consistently.
        for key in a.keys:
            assert a.matrix.query_names[a.local_row(key)] == key

    def test_serve_local_matches_plan_cache(self):
        union = make_union_matrix()
        shard = ClusterShard(0, union.n_hints)
        shard.import_rows({**union.export_rows(range(union.n_queries)),
                           "query_names": [f"t/q{i}" for i in range(union.n_queries)]})
        scalar = PlanCache(union)
        decisions = shard.serve_local(np.arange(union.n_queries))
        assert decisions.hints.tolist() == [
            scalar.lookup(q).hint for q in range(union.n_queries)
        ]

    def test_empty_shard_behaviour(self):
        shard = ClusterShard(0, 4)
        assert shard.n_rows == 0
        assert not shard.is_dirty
        assert shard.stats().decisions == 0
        with pytest.raises(ClusterError):
            shard.serve_local(np.array([0]))
        with pytest.raises(ClusterError):
            shard.export_rows(["t/q0"])

    def test_remove_all_rows_retires_the_stack(self):
        shard = ClusterShard(0, 4)
        shard.add_rows(["t/q0", "t/q1"])
        assert shard.matrix is not None
        shard.remove_rows(["t/q0", "t/q1"])
        assert shard.matrix is None and shard.service is None
        assert shard.n_rows == 0
        # The shard is reusable afterwards.
        shard.add_rows(["t/q2"])
        assert shard.n_rows == 1

    def test_telemetry_survives_full_row_retirement(self):
        shard = ClusterShard(0, 4)
        shard.add_rows(["t/q0"])
        shard.observe_local([0], [0], [1.0])
        shard.serve_local(np.array([0, 0]))
        assert shard.stats().decisions == 2
        shard.remove_rows(["t/q0"])
        # Counters are monotonic: retiring the rows keeps the history.
        assert shard.stats().decisions == 2
        shard.add_rows(["t/q9"])
        shard.observe_local([0], [0], [2.0])
        shard.serve_local(np.array([0]))
        assert shard.stats().decisions == 3

    def test_cluster_decisions_monotonic_across_rebalance(self):
        cluster = ServingCluster(n_shards=1, n_hints=4)
        cluster.add_tenant("t", ["only"])
        cluster.observe_batch("t", [0], [0], [1.0])
        cluster.serve_all("t")
        assert cluster.stats().cluster.decisions == 1
        # Keep adding shards until the single row migrates off shard 0.
        for _ in range(20):
            cluster.add_shard()
            if cluster.stats().rebalanced_rows:
                break
        assert cluster.stats().rebalanced_rows >= 1
        assert cluster.stats().cluster.decisions == 1

    def test_duplicate_key_rejected(self):
        shard = ClusterShard(0, 4)
        shard.add_rows(["t/q0"])
        with pytest.raises(ClusterError):
            shard.add_rows(["t/q0"])


# -- matrix row migration primitives ---------------------------------------------------


class TestMatrixRowMigration:
    def test_export_import_preserves_everything(self):
        union = make_union_matrix()
        payload = union.export_rows([3, 1, 7])
        other = WorkloadMatrix(1, union.n_hints)
        indices = other.import_rows(payload)
        assert indices == [1, 2, 3]
        for dst, src in zip(indices, [3, 1, 7]):
            np.testing.assert_array_equal(other.values[dst], union.values[src])
            np.testing.assert_array_equal(
                other.timeout_matrix[dst], union.timeout_matrix[src]
            )
            assert other.query_names[dst] == union.query_names[src]

    def test_remove_queries_shifts_and_bumps_version(self):
        union = make_union_matrix(n=6)
        names = list(union.query_names)
        version = union.version
        union.remove_queries([1, 4])
        assert union.n_queries == 4
        assert union.query_names == [names[i] for i in [0, 2, 3, 5]]
        assert union.version == version + 1

    def test_validation_errors(self):
        union = make_union_matrix(n=4, k=3)
        with pytest.raises(MatrixError):
            union.remove_queries([0, 1, 2, 3])
        with pytest.raises(MatrixError):
            union.export_rows([99])
        bad = union.export_rows([0])
        bad["values"] = bad["values"][:, :2]
        with pytest.raises(MatrixError):
            WorkloadMatrix(2, 3).import_rows(bad)

    def test_import_empty_payload_is_noop(self):
        union = make_union_matrix(n=4)
        version = union.version
        assert union.import_rows(union.export_rows([])) == []
        assert union.version == version


# -- cluster equivalence -----------------------------------------------------------------


class TestClusterEquivalence:
    def test_decisions_match_single_service_cell_for_cell(self):
        union = make_union_matrix()
        cluster = make_cluster(union, n_shards=3)
        single = ServingService(union.copy())
        rng = np.random.default_rng(0)
        arrivals = rng.integers(0, union.n_queries, 200)
        mine = cluster.serve_batch("acme", arrivals)
        theirs = single.serve_batch(arrivals)
        np.testing.assert_array_equal(mine.hints, theirs.hints)
        np.testing.assert_array_equal(mine.used_default, theirs.used_default)
        np.testing.assert_array_equal(
            mine.expected_latency, theirs.expected_latency
        )

    def test_export_tenant_matrix_roundtrips_union(self):
        union = make_union_matrix()
        cluster = make_cluster(union, n_shards=4)
        exported = cluster.export_tenant_matrix("acme")
        np.testing.assert_array_equal(exported.values, union.values)
        np.testing.assert_array_equal(exported.mask, union.mask)
        np.testing.assert_array_equal(exported.censored_mask, union.censored_mask)
        np.testing.assert_array_equal(
            exported.timeout_matrix, union.timeout_matrix
        )

    def test_mixed_tenant_batch_fans_out_and_regathers(self):
        union_a = make_union_matrix(seed=3)
        union_b = make_union_matrix(seed=9)
        cluster = ServingCluster(n_shards=3, n_hints=union_a.n_hints)
        populate_cluster(cluster, "a", union_a)
        populate_cluster(cluster, "b", union_b)
        single_a = ServingService(union_a.copy())
        single_b = ServingService(union_b.copy())
        rng = np.random.default_rng(4)
        arrivals = [
            ("a" if rng.random() < 0.5 else "b", int(rng.integers(0, 40)))
            for _ in range(120)
        ]
        routed = cluster.stats().routed_batches
        decisions = cluster.serve_mixed(arrivals)
        assert cluster.stats().routed_batches == routed + 1
        for i, (tenant, q) in enumerate(arrivals):
            single = single_a if tenant == "a" else single_b
            expected = single.serve_batch([q])
            assert decisions.hints[i] == expected.hints[0]
            assert decisions.queries[i] == q
            assert decisions.used_default[i] == expected.used_default[0]

    def test_observe_batch_is_atomic_across_shards(self):
        union = make_union_matrix()
        cluster = make_cluster(union, n_shards=3)
        before = cluster.export_tenant_matrix("acme")
        queries = np.arange(union.n_queries)  # spans every shard
        hints = np.ones(union.n_queries, dtype=np.int64)
        hints[-1] = union.n_hints + 5  # invalid element in a late group
        with pytest.raises(ClusterError):
            cluster.observe_batch(
                "acme", queries, hints, np.full(union.n_queries, 0.1)
            )
        with pytest.raises(ClusterError):
            cluster.observe_batch(
                "acme",
                queries,
                np.ones(union.n_queries, dtype=np.int64),
                np.full(union.n_queries, -1.0),
            )
        # No shard was mutated by either rejected batch.
        after = cluster.export_tenant_matrix("acme")
        np.testing.assert_array_equal(before.values, after.values)
        np.testing.assert_array_equal(before.mask, after.mask)

    def test_feedback_routes_to_the_owning_shard(self):
        union = make_union_matrix()
        cluster = make_cluster(union, n_shards=3)
        single = ServingService(union.copy())
        rng = np.random.default_rng(1)
        queries = rng.integers(0, union.n_queries, 30)
        hints = rng.integers(0, union.n_hints, 30)
        latencies = rng.uniform(0.01, 0.5, 30)
        cluster.observe_batch("acme", queries, hints, latencies)
        single.observe_batch(queries, hints, latencies)
        mine = cluster.serve_all("acme")
        theirs = single.serve_all()
        np.testing.assert_array_equal(mine.hints, theirs.hints)
        np.testing.assert_array_equal(
            mine.expected_latency, theirs.expected_latency
        )

    def test_unknown_tenant_and_bad_indices(self):
        union = make_union_matrix()
        cluster = make_cluster(union)
        with pytest.raises(ClusterError):
            cluster.serve_batch("nobody", [0])
        with pytest.raises(ClusterError):
            cluster.serve_batch("acme", [999])
        with pytest.raises(ClusterError):
            cluster.add_tenant("acme", ["x"])
        with pytest.raises(ClusterError):
            cluster.add_queries("acme", ["q0"])  # duplicate name

    @pytest.mark.parametrize(
        "ids",
        [[1.7, 2.2], [True], ["3"], [float("nan")], [None], [[1, 2]], 2, [-1], [6]],
    )
    def test_ids_are_integers_or_a_typed_error_at_every_door(self, ids):
        """``1.7`` is not query 1, ``True`` is not query 1, ``"3"`` is not query 3."""
        union = make_union_matrix(n=6, k=4)
        cluster = make_cluster(union, n_shards=2)
        before = cluster.export_tenant_matrix("acme")
        with pytest.raises(ClusterError):
            cluster.serve_batch("acme", ids)
        with pytest.raises(ClusterError):
            cluster.locate("acme", ids)
        if np.ndim(ids) == 1:
            with pytest.raises(ClusterError):
                cluster.serve_mixed([("acme", q) for q in ids])
        size = np.asarray(ids, dtype=object).size
        with pytest.raises(ClusterError):
            cluster.observe_batch("acme", ids, [1] * size, [0.5] * size)
        with pytest.raises(ClusterError):  # as hint ids (the matrix is 6x4)
            cluster.observe_batch("acme", [1] * size, ids, [0.5] * size)
        stats = cluster.stats()
        assert stats.routed_batches == 0 and stats.cluster.decisions == 0
        after = cluster.export_tenant_matrix("acme")
        np.testing.assert_array_equal(before.values, after.values)
        np.testing.assert_array_equal(before.mask, after.mask)

    @pytest.mark.parametrize("bad", [1.5, True, "3", None, -1, 6], ids=repr)
    def test_observe_censored_takes_integer_ids_or_touches_nothing(self, bad, tmp_path):
        """Used to raise IndexError / TypeError from inside the shard (or
        queue the bad cell for a crashed one); "-1" named no bound.  The
        censored door takes arrays, as ``observe_batch`` does."""
        cluster = make_cluster(
            make_union_matrix(n=6, k=4), n_shards=2, durability_dir=str(tmp_path)
        )
        cluster.kill_shard(cluster.shard_ids[0])  # its feedback queues
        journals = [s.journal for s in cluster.shards.values()]
        records = [j.appended_records for j in journals]
        before = cluster.stats()
        with pytest.raises(ClusterError, match=r"for tenant 'acme'"):
            cluster.observe_censored_batch("acme", [bad], [1], [2.0])
        if bad not in (-1, 6):  # (6 hints would be a fifth column)
            with pytest.raises(ClusterError, match="hint id"):
                cluster.observe_censored_batch("acme", [1], [bad], [2.0])
        with pytest.raises(ClusterError, match=r"hint id out of range \[0, 4\): min 4"):
            cluster.observe_censored_batch("acme", [1], [4], [2.0])
        with pytest.raises(ClusterError, match="unknown tenant"):
            cluster.observe_censored_batch(["acme"], [1], [1], [2.0])
        assert cluster.stats() == before and not any(cluster._outage_queue.values())
        assert [j.appended_records for j in journals] == records
        cluster.close()

    def test_a_negative_id_is_reported_against_the_tenants_own_bound(self):
        cluster = make_cluster(make_union_matrix(n=6, k=4), n_shards=2)
        with pytest.raises(ClusterError, match=r"-1 out of range \[0, 6\) for tenant 'acme'"):
            cluster.serve_mixed([("acme", -1)])
        with pytest.raises(ClusterError, match=r"range \[0, 6\): min -1, max -1 for tenant 'acme'"):
            cluster.observe_censored_batch("acme", [-1], [1], [2.0])

    def test_a_hostile_bound_is_refused_before_it_can_block_a_restart(self, tmp_path):
        """A NaN / -1.0 / ``True`` bound for a crashed shard used to be
        queued; ``restart_shard`` then raised a bare ``MatrixError`` after
        popping the queue, and an observation queued behind it was lost.
        Valid censored cells queue and replay as observations do."""
        union = make_union_matrix(n=12, k=4)
        cluster = make_cluster(union, n_shards=2, durability_dir=str(tmp_path))
        victim = int(cluster.locate("acme", [0])[0][0])
        owned = np.flatnonzero(cluster.locate("acme", np.arange(12))[0] == victim)
        unseen = [(int(q), h) for q in owned for h in range(4) if not union.is_observed(q, h)]
        (q, h), censored = unseen[0], unseen[1:4]
        cluster.kill_shard(victim)
        before = cluster.stats()
        for bad in (np.nan, -1.0, True):
            with pytest.raises(ClusterError, match="censored bounds must be finite"):
                cluster.observe_censored_batch("acme", [q], [h], [bad])
        assert cluster.stats() == before and not any(cluster._outage_queue.values())
        cluster.observe_batch("acme", [q], [h], [0.75])
        cluster.observe_censored_batch("acme", *zip(*censored), [9.0] * len(censored))
        assert [entry[0] for entry in cluster._outage_queue[victim]] == ["observe", "censor"]
        cluster.restart_shard(victim)
        stats = cluster.stats()
        assert stats.queued_feedback == stats.replayed_feedback == 1 + len(censored)
        after = cluster.export_tenant_matrix("acme")
        assert after.is_observed(q, h) and after.value(q, h) == 0.75
        assert all(after.is_censored(*cell) and after.value(*cell) == 9.0 for cell in censored)
        cluster.close()

    def test_a_bool_among_numbers_is_refused_at_every_feedback_door(self, tmp_path):
        """numpy reads ``[0, True]`` as ``[0, 1]`` and ``[0.5, True]`` as
        ``[0.5, 1.0]``: a list mixing numbers and bools passed the dtype
        check, so ``observe_batch([0, True], ...)`` wrote row 1 and a ``True``
        bound was recorded as 1.0, at every batched door.  Each door refuses
        with its own error, and no version, journal or outage queue moves."""
        union = make_union_matrix(n=12, k=4)
        cluster = make_cluster(union, n_shards=2, durability_dir=str(tmp_path))
        rows = cluster.locate("acme", np.arange(12))[0]
        live, victim = 0, 1
        cluster.kill_shard(victim)
        shard = cluster.shards[live]
        # Ids below both shards' row counts: local rows of the live shard, and
        # tenant rows 0-4, three of which route to the crashed shard's queue.
        bound = int(min((rows == live).sum(), (rows == victim).sum()))
        doors = {
            "matrix.observe_batch": (shard.matrix.observe_batch, MatrixError),
            "matrix.observe_censored_batch": (shard.matrix.observe_censored_batch, MatrixError),
            "service.observe_batch": (shard.service.observe_batch, MatrixError),
            "service.observe_censored_batch": (shard.service.observe_censored_batch, MatrixError),
            "shard.observe_local": (shard.observe_local, MatrixError),
            "shard.observe_censored_local": (shard.observe_censored_local, MatrixError),
            "cluster.observe_batch": (
                lambda *cells: cluster.observe_batch("acme", *cells), ClusterError
            ),
            "cluster.observe_censored_batch": (
                lambda *cells: cluster.observe_censored_batch("acme", *cells), ClusterError
            ),
        }

        def state():
            return (shard.matrix.version, shard.journal.appended_records,
                    repr(cluster._outage_queue), cluster.stats())

        def ids(top):
            return st.integers(0, top - 1).flatmap(lambda i: st.sampled_from([i, np.int64(i)]))

        values = st.one_of(
            st.floats(0.1, 10.0), st.integers(1, 10), st.integers(1, 10).map(np.int64)
        )

        @settings(max_examples=60, deadline=None)
        @given(
            cells=st.lists(st.tuples(ids(bound), ids(4), values), min_size=1, max_size=5),
            spot=st.tuples(st.integers(0, 2), st.integers(0, 4)),
            bad=st.sampled_from([True, False, np.True_, np.False_]),
            container=st.sampled_from([list, tuple]),
        )
        def check(cells, spot, bad, container):
            columns = [list(column) for column in zip(*cells)]
            which, at = spot
            columns[which][at % len(cells)] = bad
            columns = [container(column) for column in columns]
            before = state()
            for name, (door, error) in doors.items():
                with pytest.raises(error, match="integers|must be finite"):
                    door(*columns)
                assert state() == before, name

        check()
        cluster.close()

    def test_feedback_runs_the_shard_door_the_class_holds_now(self, monkeypatch, tmp_path):
        """The e2e tracer wraps ``ClusterShard.observe_local`` on the class;
        a door table holding the functions from import time bypassed the
        wrapper, and the span read 0.  Live and replayed feedback alike."""
        union = make_union_matrix(n=12, k=4)
        cluster = make_cluster(union, n_shards=2, durability_dir=str(tmp_path))
        calls = []
        for name in ("observe_local", "observe_censored_local"):

            def counted(shard, *cells, door=getattr(ClusterShard, name), name=name):
                calls.append(name)
                door(shard, *cells)

            monkeypatch.setattr(ClusterShard, name, counted)
        cells = [(q, h) for q in range(12) for h in range(4) if not union.is_observed(q, h)]
        cluster.observe_batch("acme", [cells[0][0]], [cells[0][1]], [1.0])
        cluster.observe_censored_batch("acme", [cells[1][0]], [cells[1][1]], [2.0])
        assert calls == ["observe_local", "observe_censored_local"]
        victim = int(cluster.locate("acme", [cells[2][0]])[0][0])
        cluster.kill_shard(victim)
        cluster.observe_censored_batch("acme", [cells[2][0]], [cells[2][1]], [2.0])
        cluster.restart_shard(victim)
        assert calls[2:] == ["observe_censored_local"]
        cluster.close()

    def test_integer_ids_of_any_width_and_empty_batches_pass(self):
        union = make_union_matrix(n=6, k=4)
        cluster = make_cluster(union, n_shards=2)
        expected = cluster.serve_batch("acme", [1, 5]).hints
        for ids in (np.array([1, 5], dtype=np.uint8), np.array([1, 5], dtype=np.int32), (1, 5)):
            np.testing.assert_array_equal(cluster.serve_batch("acme", ids).hints, expected)
        mixed = cluster.serve_mixed([("acme", np.int16(1)), ("acme", 5)])
        np.testing.assert_array_equal(mixed.hints, expected)
        assert cluster.serve_batch("acme", []).batch_size == 0
        assert cluster.serve_mixed([]).batch_size == 0
        cluster.observe_batch("acme", [], [], [])
        cluster.observe_batch("acme", np.array([2], dtype=np.uint16), [3], [0.25])
        assert cluster.export_tenant_matrix("acme").value(2, 3) == 0.25

    def test_mixed_batch_names_the_arrival_that_is_out_of_range(self):
        cluster = make_cluster(make_union_matrix(n=6, k=4), n_shards=2)
        populate_cluster(cluster, "globex", make_union_matrix(n=9, k=4))
        cluster.serve_mixed([("acme", 5), ("globex", 8)])
        with pytest.raises(ClusterError, match="out of range.*'acme'"):
            cluster.serve_mixed([("globex", 6), ("acme", 6)])
        with pytest.raises(ClusterError, match="unknown tenant 'nobody'"):
            cluster.serve_mixed([("acme", 1), ("nobody", 0)])

    def test_add_queries_after_registration(self):
        union = make_union_matrix()
        cluster = make_cluster(union)
        new = cluster.add_queries("acme", ["extra0", "extra1"])
        assert new == [union.n_queries, union.n_queries + 1]
        decisions = cluster.serve_batch("acme", new)
        # Nothing observed for the new rows: default plans, unknown latency.
        assert decisions.used_default.all()
        assert np.isinf(decisions.expected_latency).all()


# -- rebalancing ------------------------------------------------------------------------


class TestRebalancing:
    def test_add_shard_moves_only_rerouted_rows(self):
        union = make_union_matrix(n=60)
        cluster = make_cluster(union, n_shards=3)
        directory = cluster._tenants["acme"]
        before = directory.shard_of.copy()
        new_id = cluster.add_shard()
        after = directory.shard_of
        moved = before != after
        assert (after[moved] == new_id).all()
        assert cluster.stats().rebalanced_rows == int(moved.sum())
        total_rows = sum(s.n_rows for s in cluster.shards.values())
        assert total_rows == union.n_queries

    def test_decisions_identical_after_rebalance(self):
        union = make_union_matrix(n=60)
        cluster = make_cluster(union, n_shards=2)
        before = cluster.serve_all("acme")
        cluster.add_shard()
        cluster.add_shard()
        after = cluster.serve_all("acme")
        np.testing.assert_array_equal(before.hints, after.hints)
        np.testing.assert_array_equal(
            before.expected_latency, after.expected_latency
        )
        exported = cluster.export_tenant_matrix("acme")
        np.testing.assert_array_equal(exported.values, union.values)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        n_shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_rebalance_property_random_matrices(self, n, n_shards, seed):
        union = make_union_matrix(n=n, k=5, seed=seed, censored=False)
        cluster = ServingCluster(n_shards=n_shards, n_hints=5)
        populate_cluster(cluster, "t", union)
        directory = cluster._tenants["t"]
        before_assign = directory.shard_of.copy()
        before = cluster.serve_all("t")
        new_id = cluster.add_shard()
        after = cluster.serve_all("t")
        moved = before_assign != directory.shard_of
        assert (directory.shard_of[moved] == new_id).all()
        np.testing.assert_array_equal(before.hints, after.hints)


# -- failover --------------------------------------------------------------------------


class TestFailover:
    def test_down_shard_serves_default_plans(self):
        union = make_union_matrix(n=60)
        cluster = make_cluster(union, n_shards=3)
        healthy = cluster.serve_all("acme")
        victim = cluster.shard_ids[1]
        cluster.mark_down(victim)
        degraded = cluster.serve_all("acme")
        on_down = cluster._tenants["acme"].shard_of == victim
        assert on_down.any()
        assert degraded.used_default[on_down].all()
        assert (degraded.hints[on_down] == DEFAULT_HINT).all()
        assert np.isinf(degraded.expected_latency[on_down]).all()
        # Healthy shards are untouched by the outage.
        np.testing.assert_array_equal(
            degraded.hints[~on_down], healthy.hints[~on_down]
        )
        assert cluster.stats().degraded_decisions == int(on_down.sum())

    def test_recovery_restores_identical_decisions(self):
        union = make_union_matrix(n=60)
        cluster = make_cluster(union, n_shards=3)
        healthy = cluster.serve_all("acme")
        victim = cluster.shard_ids[0]
        cluster.mark_down(victim)
        cluster.serve_all("acme")
        cluster.mark_up(victim)
        recovered = cluster.serve_all("acme")
        np.testing.assert_array_equal(healthy.hints, recovered.hints)

    def test_an_up_shards_error_propagates(self):
        union = make_union_matrix(n=30)
        cluster = make_cluster(union, n_shards=2)
        victim = cluster.shard_ids[0]
        # Sabotage one shard so serve_local raises.
        cluster.shards[victim].service = None
        with pytest.raises(ClusterError, match="owns no rows"):
            cluster.serve_all("acme")
        assert cluster.down_shards == []
        assert cluster.stats().degraded_decisions == 0
        # Only a DOWN shard's rows degrade: to the default plan at unknown
        # latency, what no service would have run.
        cluster.mark_down(victim)
        decisions = cluster.serve_all("acme")
        on_down = cluster._tenants["acme"].shard_of == victim
        assert decisions.used_default[on_down].all()
        assert (decisions.hints[on_down] == DEFAULT_HINT).all()
        assert np.isinf(decisions.expected_latency[on_down]).all()
        assert decisions.hints.dtype == np.int64 and decisions.used_default.dtype == bool

    def test_a_failed_batch_counts_no_routing(self):
        # The first shard is DOWN (its rows would degrade), the middle one
        # answers, and the last one raises: the batch reaches no caller, so
        # the cluster's routing counters must not count it.
        cluster = make_cluster(make_union_matrix(n=30), n_shards=3)
        first, middle, last = cluster.shard_ids
        cluster.serve_all("acme")
        cluster.mark_down(first)
        cluster.shards[last].service = None  # its door raises ClusterError
        before = cluster.stats()
        arrivals = [("acme", q) for q in range(30)]
        doors = (
            lambda: cluster.serve_mixed(arrivals),
            lambda: cluster.serve_batch("acme", np.arange(30)),
        )
        for door in doors:
            with pytest.raises(ClusterError, match="owns no rows"):
                door()
            after = cluster.stats()
            assert after.routed_batches == before.routed_batches == 1
            assert after.fan_out == before.fan_out
            assert after.degraded_decisions == before.degraded_decisions == 0
        # A shard's own counters keep the rows it decided before the failure.
        assert after.per_shard[middle].decisions > before.per_shard[middle].decisions

    def test_mark_up_refuses_a_crashed_shard(self, tmp_path):
        union = make_union_matrix(n=20)
        telemetry = Telemetry()
        cluster = make_cluster(
            union, n_shards=2, durability_dir=str(tmp_path), telemetry=telemetry
        )
        victim = cluster.shard_ids[0]
        mine = np.flatnonzero(cluster._tenants["acme"].shard_of == victim)
        cluster.mark_down(victim)  # an operator's mark, then the crash
        cluster.kill_shard(victim)
        cluster.observe_batch("acme", mine[:2], [1, 2], [0.5, 0.25])
        queued = cluster._outage_queue[victim]
        stats = cluster.stats()
        with pytest.raises(ClusterError, match=rf"restart_shard\({victim}\)"):
            cluster.mark_up(victim)
        assert cluster.down_shards == [victim]
        assert cluster.stats() == stats
        assert telemetry.registry.get("repro_shards_up").child.value == 1
        assert cluster._outage_queue[victim] is queued and len(queued) == 1
        # A restart rejoins it UP, the mark before the crash notwithstanding.
        cluster.restart_shard(victim)
        assert cluster.down_shards == []
        assert cluster.stats().replayed_feedback == 2
        cluster.close()

    def test_an_unknown_shard_cannot_be_marked(self):
        cluster = make_cluster(make_union_matrix(n=10), n_shards=2)
        for mark in (cluster.mark_down, cluster.mark_up):
            with pytest.raises(ClusterError, match="unknown shard 7"):
                mark(7)
        assert cluster.down_shards == []


# -- background refresh scheduling ----------------------------------------------------


class TestRefreshScheduler:
    def test_serve_and_observe_never_run_als(self):
        union = make_union_matrix(n=30)
        cluster = make_cluster(union, n_shards=2)
        cluster.serve_all("acme")
        cluster.observe_batch("acme", [0, 1], [1, 2], [0.5, 0.25])
        for shard in cluster.shards.values():
            assert shard.refresher.cold_solves == 0
            assert shard.refresher.warm_refreshes == 0

    def test_tick_budget_round_robin(self):
        union = make_union_matrix(n=40)
        cluster = make_cluster(union, n_shards=4)
        dirty = cluster.scheduler.dirty_shards()
        assert len(dirty) == 4  # populated => every shard dirty
        refreshed = [cluster.tick() for _ in dirty]
        assert all(len(ids) == 1 for ids in refreshed)
        assert sorted(sum(refreshed, [])) == dirty  # the cursor advanced
        assert cluster.scheduler.dirty_shards() == []
        assert cluster.tick() == []  # clean cluster: a no-op tick

    def test_scheduler_skips_down_shards(self):
        union = make_union_matrix(n=40)
        cluster = make_cluster(union, n_shards=2)
        victim = cluster.shard_ids[0]
        cluster.mark_down(victim)
        refreshed = cluster.tick()
        assert victim not in refreshed
        assert cluster.scheduler.skipped_down >= 1
        assert victim in cluster.scheduler.dirty_shards()
        cluster.mark_up(victim)
        assert victim in cluster.tick()

    def test_refresh_updates_completion_for_serving(self):
        union = make_union_matrix(n=25)
        cluster = make_cluster(union, n_shards=2)
        assert sorted(cluster.tick() + cluster.tick()) == cluster.shard_ids
        for shard in cluster.shards.values():
            assert shard.refresher.cold_solves == 1
            assert not shard.is_dirty
            completed = shard.refresher.result.completed
            assert completed.shape == shard.matrix.shape
        # New feedback dirties only the owning shard.
        cluster.observe_batch("acme", [0], [1], [0.1])
        dirty = cluster.scheduler.dirty_shards()
        assert len(dirty) == 1
        assert cluster.tick() == dirty
        assert cluster.shards[dirty[0]].refresher.warm_refreshes == 1

    def test_tick_skips_a_shard_with_rows_but_no_observation(self):
        # ALS rejects an empty mask, so such a shard has nothing to
        # complete: no error, no budget spent, not marked refreshed.
        cluster = ServingCluster(2, 8)
        cluster.add_tenant("web", [f"k{i}" for i in range(20)])
        assert all(shard.n_rows for shard in cluster.shards.values())
        assert cluster.tick() == []
        assert cluster.scheduler.dirty_shards() == []
        assert cluster.scheduler.refreshes == 0
        # The first observation makes exactly its shard refreshable, and the
        # unobserved shard examined before it did not use up the budget.
        cluster.observe_batch("web", [3], [0], [0.5])
        (owner,) = cluster.scheduler.dirty_shards()
        assert cluster.tick() == [owner]
        assert cluster.shards[owner].refresher.cold_solves == 1

    def test_a_failed_refresh_is_counted_not_raised(self):
        # One finite but huge latency passes observe_batch's check and
        # overflows censored ALS; the tick used to raise CompletionError,
        # and every tick after it, so the other shard never refreshed.
        cluster = ServingCluster(2, 4)
        cluster.add_tenant("t", [f"q{i}" for i in range(8)])
        cluster.observe_batch("t", np.arange(8), np.zeros(8, dtype=int), np.ones(8))
        shard_of, _ = cluster.locate("t", np.arange(8))
        first = cluster.shard_ids[0]  # the ring's first stop
        huge = int(np.flatnonzero(shard_of == first)[0])
        cluster.observe_batch("t", [huge], [1], [1e300])
        with np.errstate(all="ignore"):
            assert cluster.tick() == [cluster.shard_ids[1]]
            # Marked refreshed at its version: it waits for its next write.
            assert cluster.scheduler.dirty_shards() == []
            assert cluster.tick() == []
        stats = cluster.stats()
        assert stats.cluster.refresh_failures == 1
        assert stats.per_shard[first].refresh_failures == 1
        assert stats.scheduler_refreshes == 1

    def test_scheduler_validation(self):
        down = set()
        scheduler = RefreshScheduler(down)
        shard = ClusterShard(0, 4)
        scheduler.register(shard)
        with pytest.raises(ClusterError):
            scheduler.register(shard)
        assert scheduler.tick() == []  # empty shard is never dirty
        shard.add_rows(["q0", "q1"])
        shard.observe_local([0, 1], [0, 0], [1.0, 2.0])
        down.add(0)  # the owner's set, read live on every tick
        assert scheduler.tick() == [] and scheduler.skipped_down == 1
        down.clear()
        assert scheduler.tick() == [0]


# -- stats ------------------------------------------------------------------------------


class TestStats:
    def test_as_dict_keeps_counters_integral(self):
        recorder = LatencyRecorder()
        recorder.record(4, 0.5, 1)
        recorder.record_refresh()
        payload = recorder.report().as_dict()
        assert payload["decisions"] == 4 and isinstance(payload["decisions"], int)
        assert payload["batches"] == 1 and isinstance(payload["batches"], int)
        assert payload["refreshes"] == 1 and isinstance(payload["refreshes"], int)
        assert isinstance(payload["throughput_qps"], float)

    def test_merged_recorders_give_exact_percentiles(self):
        rng = np.random.default_rng(2)
        recorders, all_sizes, all_seconds = [], [], []
        for _ in range(3):
            recorder = LatencyRecorder()
            sizes = rng.integers(1, 20, 8)
            seconds = rng.random(8) * 1e-3
            for size, sec in zip(sizes, seconds):
                recorder.record(int(size), float(sec), 0)
            recorders.append(recorder)
            all_sizes.extend(sizes.tolist())
            all_seconds.extend(seconds.tolist())
        pooled = LatencyRecorder.merged(recorders).report()
        expanded = np.repeat(
            np.asarray(all_seconds) / np.asarray(all_sizes), all_sizes
        )
        assert pooled.p50_latency_s == pytest.approx(
            np.percentile(expanded, 50.0)
        )
        assert pooled.p99_latency_s == pytest.approx(
            np.percentile(expanded, 99.0)
        )

    def test_merged_totals_are_the_sum_of_wrapped_parts(self):
        rng = np.random.default_rng(3)
        recorders, kept_sizes, kept_seconds = [], [], []
        for n in (RECENT_BATCHES + 500, 2 * RECENT_BATCHES + 1, 40):
            recorder = LatencyRecorder()
            sizes = rng.integers(1, 20, n)
            seconds = rng.random(n) * 1e-3
            for size, sec in zip(sizes.tolist(), seconds.tolist()):
                recorder.record(size, sec, size // 2)
            recorder.record_refresh()
            recorder.record_shed(2)
            recorders.append(recorder)
            kept_sizes.append(sizes[-RECENT_BATCHES:])
            kept_seconds.append(seconds[-RECENT_BATCHES:])
        parts = [r.report() for r in recorders]
        pooled = LatencyRecorder.merged(recorders).report()
        assert pooled.decisions == sum(p.decisions for p in parts)
        assert pooled.batches == sum(p.batches for p in parts)
        assert pooled.wall_seconds == pytest.approx(
            sum(p.wall_seconds for p in parts), rel=1e-12
        )
        assert pooled.refreshes == 3 and pooled.shed == 6
        assert pooled.non_default_fraction == pytest.approx(
            sum(p.non_default_fraction * p.decisions for p in parts)
            / pooled.decisions
        )
        # Percentiles pool every part's retained window, nothing older.
        sizes, seconds = np.concatenate(kept_sizes), np.concatenate(kept_seconds)
        expanded = np.repeat(seconds / sizes, sizes)
        assert pooled.p50_latency_s == pytest.approx(np.percentile(expanded, 50.0))
        assert pooled.p99_latency_s == pytest.approx(np.percentile(expanded, 99.0))

    def test_merge_of_empty_parts(self):
        # What the cluster aggregator pools before any shard has served.
        for parts in ([LatencyRecorder(), LatencyRecorder()], []):
            pooled = LatencyRecorder.merged(parts).report()
            assert pooled.decisions == 0 and pooled.batches == 0
            assert pooled.throughput_qps == 0.0
            assert pooled.p50_latency_s == pooled.p99_latency_s == 0.0

    def test_merged_recorder_keeps_recording(self):
        a = LatencyRecorder()
        a.record(3, 0.3, 1)
        pooled = LatencyRecorder.merged([a, LatencyRecorder()])
        pooled.record(1, 0.2, 0)
        stats = pooled.report()
        assert (stats.decisions, stats.batches) == (4, 2)
        assert stats.p99_latency_s == pytest.approx(0.2, rel=0.05)
        assert a.report().batches == 1  # parts are left alone

    def test_cluster_stats_do_not_grow_with_history(self):
        union = make_union_matrix(n=40)
        cluster = make_cluster(union, n_shards=2)
        for _ in range(RECENT_BATCHES + 10):
            cluster.serve_batch("acme", [0, 1, 2, 3])
        stats = cluster.stats()
        assert stats.cluster.decisions == 4 * (RECENT_BATCHES + 10)
        assert stats.cluster.batches == sum(
            s.batches for s in stats.per_shard.values()
        )
        pooled = LatencyRecorder.merged(
            [s.recorder() for s in cluster.shards.values()]
        )
        assert len(pooled._sizes) <= 2 * RECENT_BATCHES

    def test_cluster_stats_aggregation(self):
        union = make_union_matrix(n=40)
        cluster = make_cluster(union, n_shards=3)
        cluster.serve_all("acme")
        cluster.serve_batch("acme", [0, 1, 2, 3])
        stats = cluster.stats()
        assert stats.n_shards == 3
        assert stats.n_tenants == 1
        assert stats.total_rows == union.n_queries
        assert stats.cluster.decisions == sum(
            s.decisions for s in stats.per_shard.values()
        )
        assert stats.routed_batches == 2
        assert stats.fan_out >= 1.0
        payload = stats.as_dict()
        assert payload["cluster"]["decisions"] == stats.cluster.decisions
        assert str(stats).startswith("ClusterStats(")

    def test_cluster_report_uses_exact_pooled_percentiles(self):
        union = make_union_matrix(n=40)
        cluster = make_cluster(union, n_shards=2)
        cluster.serve_all("acme")
        exact = LatencyRecorder.merged(
            [s.recorder() for s in cluster.shards.values()]
        ).report()
        aggregated = cluster.stats().cluster
        assert aggregated.p50_latency_s == exact.p50_latency_s
        assert aggregated.p99_latency_s == exact.p99_latency_s


# -- the experiment driver --------------------------------------------------------------


class TestClusterExperiment:
    def test_comparison_on_tiny_workload(self, tiny_workload):
        result = cluster_vs_single_comparison(
            tiny_workload,
            n_shards=2,
            batch_size=64,
            n_batches=4,
        )
        assert result["identical"] == 1.0
        assert result["degraded_ok"] == 1.0
        assert result["recovered"] == 1.0
        assert result["rebalance_ok"] == 1.0
        assert result["decisions"] == 256.0
        assert result["cluster_inprocess_qps"] > 0

    def test_populate_cluster_with_censoring(self):
        union = make_union_matrix(censored=True)
        cluster = ServingCluster(n_shards=2, n_hints=union.n_hints)
        populate_cluster(cluster, "t", union)
        exported = cluster.export_tenant_matrix("t")
        np.testing.assert_array_equal(
            exported.censored_mask, union.censored_mask
        )
        np.testing.assert_array_equal(
            exported.timeout_matrix, union.timeout_matrix
        )
