"""Tests for the durability layer (repro.durability) and its stack wiring.

Four layers, matching the module's design:

* :class:`WriteAheadLog` -- framing, CRC validation, LSN contiguity,
  torn-tail repair, segment rotation and truncation.  The load-bearing
  crash contract is a hypothesis sweep: truncating a healthy journal at
  *any* byte offset recovers a valid prefix state -- never a silently
  wrong state, never an unhandled exception;
* snapshots -- atomic install, corruption is a typed error, checkpoints
  bound the on-disk footprint without losing the adaptation backlog;
* recovery -- a recovered :class:`ServingService` reaches byte-identical
  decisions (raw little-endian bytes round-trip IEEE-754 doubles exactly);
* fault injection + cluster crash/rejoin -- deterministic crash points,
  degraded serving during an outage, queued feedback replayed on restart,
  and post-restart decisions identical to an uninterrupted cluster.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.cluster import ClusterAdaptationController
from repro.cluster import ServingCluster
from repro.cluster.router import routing_key
from repro.cluster.shard import ClusterShard
from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import (
    FAULT_POINTS,
    FaultFS,
    FaultInjector,
    ShardJournal,
    WriteAheadLog,
    recover_journal,
    write_snapshot,
)
from repro.errors import (
    ClusterError,
    DurabilityError,
    InjectedCrash,
    MatrixError,
    WalCorruption,
)
from repro.serving import ServingService

SEGMENT_1 = "wal-00000000000000000001.log"


def make_matrix(n=8, k=4, seed=7):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.5, 20.0, size=(n, k))
    matrix = WorkloadMatrix(n, k)
    observed = rng.random((n, k)) < 0.6
    observed[:, 0] = True
    rows, cols = np.nonzero(observed)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    return matrix


#: ``array name -> value`` written into one cell of an otherwise valid
#: payload: each makes a cell no mutator could have written.
HOSTILE_CELLS = {
    "nan-latency": ("values", np.nan),
    "inf-latency": ("values", np.inf),
    "negative-latency": ("values", -1.0),
    "zero-bound": ("timeouts", 0.0),
    "nan-bound": ("timeouts", np.nan),
    "inf-bound": ("timeouts", np.inf),
    "observed-and-censored": ("censored", True),
}


def hostile_payload(kind):
    """Rows ``x`` and ``y`` of four hints, one cell made hostile by ``kind``."""
    payload = make_matrix(n=2).to_dict()
    payload["query_names"] = ["x", "y"]
    array, value = HOSTILE_CELLS[kind]
    if array == "timeouts":  # a bound only means something on a censored cell
        row, hint = 1, 3
        payload["observed"][row, hint] = False
        payload["values"][row, hint] = np.inf
        payload["censored"][row, hint] = True
    else:  # the default column is always observed
        row, hint = 0, 0
        payload["timeouts"][row, hint] = 1.0
    payload[array][row, hint] = value
    return payload


def recover_service(directory):
    """A service resumed from ``directory``'s journal, and what recovery found."""
    journal, state = recover_journal(directory)
    return ServingService(state.matrix, journal=journal), state


def assert_identical_decisions(a, b):
    """Byte-identical: same plans, same flags, bit-equal expected latency."""
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.hints, b.hints)
    assert np.array_equal(a.used_default, b.used_default)
    assert a.expected_latency.tobytes() == b.expected_latency.tobytes()


def assert_same_matrix(state, expected):
    """Compare a recovered matrix against an expected ``to_dict()`` payload:
    the arrays byte for byte, the names as lists."""
    if expected is None:
        assert state is None
        return
    assert state is not None
    got = state.to_dict()
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        if isinstance(want, np.ndarray):
            assert got[key].dtype == want.dtype and got[key].shape == want.shape, key
            assert got[key].tobytes() == want.tobytes(), key
        else:
            assert got[key] == want, key


# -- the write-ahead log ---------------------------------------------------------


class TestWriteAheadLog:
    def test_roundtrip_and_lsn_assignment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        assert wal.append("observe", {"q": [1], "h": [2], "v": [3.5]})[0] == 1
        assert wal.append("censor", {"q": 0, "h": 1, "lb": 9.25})[0] == 2
        wal.close()

        reopened = WriteAheadLog(str(tmp_path))
        records = reopened.open()
        assert [(r.lsn, r.kind) for r in records] == [(1, "observe"), (2, "censor")]
        assert records[0].data == {"q": [1], "h": [2], "v": [3.5]}
        assert records[1].data["lb"] == 9.25  # exact double round-trip
        assert reopened.next_lsn == 3

    def test_rejects_unknown_kind_and_bad_sync(self, tmp_path):
        with pytest.raises(DurabilityError):
            WriteAheadLog(str(tmp_path), sync="nope")
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        with pytest.raises(DurabilityError):
            wal.append("mystery", {})

    def test_torn_tail_is_repaired_not_an_error(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})
        wal.append("observe", {"q": [1], "h": [1], "v": [2.0]})
        wal.close()
        path = tmp_path / SEGMENT_1
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # crash mid-append

        reopened = WriteAheadLog(str(tmp_path))
        records = reopened.open()
        assert [r.lsn for r in records] == [1]
        assert reopened.discarded_tail_records == 1
        assert reopened.next_lsn == 2
        # The tail was physically truncated, so appending resumes cleanly
        # on the same segment and a further reopen sees a healthy log.
        reopened.append("observe", {"q": [2], "h": [2], "v": [3.0]})
        reopened.close()
        final = WriteAheadLog(str(tmp_path))
        assert [r.lsn for r in final.open()] == [1, 2]

    def test_crc_corruption_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})
        wal.close()
        path = tmp_path / SEGMENT_1
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte, length intact
        path.write_bytes(bytes(blob))
        with pytest.raises(WalCorruption):
            WriteAheadLog(str(tmp_path)).open()

    def test_lsn_gap_within_a_segment_raises(self, tmp_path):
        from repro.durability import encode_record

        path = tmp_path / SEGMENT_1
        path.write_bytes(
            encode_record(1, "add_query", {"name": None})
            + encode_record(3, "add_query", {"name": None})  # 2 is missing
        )
        with pytest.raises(WalCorruption):
            WriteAheadLog(str(tmp_path)).open()

    def test_deleted_segment_is_a_history_gap(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix()
        ServingService(matrix, journal=journal)
        journal.wal.rotate()
        matrix.observe_batch([0], [1], [3.0])
        journal.crash()
        os.remove(tmp_path / SEGMENT_1)  # lose the import record
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))

    def test_reopen_of_an_empty_rotated_log_resumes_lsn(self, tmp_path):
        # A checkpoint leaves exactly one empty segment named for the next
        # LSN; a reopen before any append must resume there, not at 1.
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        wal.append("add_query", {"name": None})
        wal.append("add_query", {"name": None})
        wal.rotate()
        wal.truncate_through(2)
        wal.close()

        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.open() == []
        assert reopened.next_lsn == 3  # the segment name's promise
        assert reopened.append("add_query", {"name": None})[0] == 3
        reopened.close()
        final = WriteAheadLog(str(tmp_path))
        assert [r.lsn for r in final.open()] == [3]

    def test_truncate_through_unlinks_covered_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        for i in range(4):
            wal.append("observe", {"q": [i], "h": [0], "v": [1.0]})
        wal.rotate()
        before = wal.on_disk_bytes()
        reclaimed = wal.truncate_through(wal.next_lsn - 1)
        assert reclaimed > 0
        assert wal.on_disk_bytes() == before - reclaimed
        assert wal.segment_count == 1  # only the fresh live segment

    def test_back_to_back_rotations_do_not_list_a_segment_twice(self, tmp_path):
        # Two checkpoints with no append between them used to list the empty
        # live segment twice; the checkpoint after the next append then
        # unlinked it and died sizing the second listing (FileNotFoundError).
        wal = WriteAheadLog(str(tmp_path))
        wal.open()
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})
        for _ in range(2):
            wal.rotate()
            wal.truncate_through(wal.next_lsn - 1)
        assert wal.segment_count == 1
        wal.append("observe", {"q": [1], "h": [0], "v": [1.0]})
        wal.rotate()
        assert wal.truncate_through(wal.next_lsn - 1) > 0
        assert wal.segment_count == 1
        wal.close()
        assert [r.lsn for r in WriteAheadLog(str(tmp_path)).open()] == []


# -- snapshots -------------------------------------------------------------------


class TestSnapshot:
    def test_checkpoint_truncates_and_recovery_prefers_snapshot(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix()
        service = ServingService(matrix, journal=journal)
        matrix.observe_batch([0, 1], [1, 2], [4.0, 5.0])
        bytes_before = journal.on_disk_bytes()
        covered = journal.checkpoint(matrix.to_dict())
        matrix.observe_batch([2], [1], [6.0])
        journal.crash()

        recovered, state = recover_journal(str(tmp_path))
        assert state.snapshot_lsn == covered
        assert state.skipped_records == 0  # truncation removed old segments
        assert state.replayed_records == 1  # only the post-checkpoint observe
        assert_same_matrix(state.matrix, matrix.to_dict())
        del service, bytes_before

    def test_crash_right_after_checkpoint_keeps_the_journal_usable(self, tmp_path):
        # checkpoint -> crash -> recover -> observe -> crash -> recover:
        # the first recovery sees zero surviving WAL records and must
        # resume LSNs past the snapshot, or the second one is bricked.
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix()
        ServingService(matrix, journal=journal)
        journal.checkpoint(matrix.to_dict())
        journal.crash()

        journal, state = recover_journal(str(tmp_path))
        assert state.next_lsn == state.snapshot_lsn + 1
        recovered = ServingService(state.matrix, journal=journal)
        recovered.observe_batch([0], [1], [4.5])
        expected = recovered.serve_all()
        journal.crash()

        final_service, final_state = recover_service(str(tmp_path))
        assert final_state.replayed_records == 1  # the post-checkpoint observe
        assert final_state.skipped_records == 0  # nothing silently dropped
        assert_identical_decisions(final_service.serve_all(), expected)

    def test_corrupt_snapshot_is_typed(self, tmp_path):
        write_snapshot(str(tmp_path), {"matrix": None, "backlog": []}, 0)
        snap = tmp_path / "snapshot.bin"
        snap.write_bytes(b"\x01\x02" + snap.read_bytes()[2:])
        with pytest.raises(WalCorruption):
            ShardJournal(str(tmp_path))

    def test_crafted_snapshot_body_is_typed_at_recovery(self, tmp_path):
        # Well framed, CRC intact, arrays of one shape -- but cells no
        # mutator could have produced, which used to surface later as an
        # IndexError from row_minima().
        payload = make_matrix().to_dict()
        payload["censored"][0, 0] = True  # observed and censored
        payload["timeouts"][0, 0] = np.nan
        write_snapshot(
            str(tmp_path), {"matrix": payload, "backlog": []}, 3
        )
        with pytest.raises(WalCorruption, match="does not hold a matrix"):
            recover_journal(str(tmp_path))

    def test_crafted_import_record_is_typed_at_recovery(self, tmp_path):
        # The second import lands on a live matrix (``import_rows``, not
        # ``from_dict``): a cell both observed and censored, and a NaN bound.
        journal = ShardJournal(str(tmp_path))
        ServingService(make_matrix(), journal=journal)  # the first import
        payload = make_matrix(n=2).to_dict()
        payload["censored"][0, 0] = True
        payload["timeouts"][0, 0] = np.nan
        journal.log_import(payload)
        journal.crash()
        with pytest.raises(WalCorruption, match="import"):
            recover_journal(str(tmp_path))

    @pytest.mark.parametrize("kind", list(HOSTILE_CELLS))
    def test_every_hostile_import_record_is_typed_at_recovery(self, tmp_path, kind):
        # Whether it would create the matrix or land on a live one, a
        # crafted import record fails its replay as corruption.
        for live in (False, True):
            directory = str(tmp_path / f"live-{live}")
            journal = ShardJournal(directory)
            if live:
                ServingService(make_matrix(), journal=journal)
            journal.log_import(hostile_payload(kind))
            journal.crash()
            with pytest.raises(WalCorruption, match="import"):
                recover_journal(directory)

    def test_checkpoint_preserves_adaptation_backlog(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix()
        ServingService(matrix, journal=journal)
        journal.log_adapt_backlog([5, 2, 0])
        journal.checkpoint(matrix.to_dict())
        journal.crash()

        _, state = recover_journal(str(tmp_path))
        assert state.backlog.tolist() == [5, 2, 0]


# -- service-level recovery -------------------------------------------------------


class TestServiceRecovery:
    def test_recovered_service_is_byte_identical(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix()
        service = ServingService(matrix, journal=journal)
        service.observe_batch([0, 3], [1, 2], [2.5, 7.125])
        matrix.observe_censored(1, 3, 30.0)
        matrix.invalidate([4])
        expected = service.serve_all()
        journal.crash()

        recovered_service, state = recover_service(str(tmp_path))
        assert state.replayed_records == state.next_lsn - 1
        assert_identical_decisions(recovered_service.serve_all(), expected)

    def test_empty_directory_has_no_matrix(self, tmp_path):
        journal, state = recover_journal(str(tmp_path))
        assert state.matrix is None
        journal.close()


# -- fault injection --------------------------------------------------------------


class TestFaultInjection:
    def test_arm_validates_inputs(self):
        injector = FaultInjector()
        with pytest.raises(DurabilityError):
            injector.arm("wal.append.sideways")
        with pytest.raises(DurabilityError):
            injector.arm("wal.append.before_write", at=0)
        assert "wal.append.torn_write" in FAULT_POINTS

    def test_fires_on_the_nth_pass(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(str(tmp_path), fs=FaultFS(injector))
        wal.open()
        plan = injector.arm("wal.append.before_write", at=3)
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})
        wal.append("observe", {"q": [1], "h": [0], "v": [1.0]})
        with pytest.raises(InjectedCrash):
            wal.append("observe", {"q": [2], "h": [0], "v": [1.0]})
        assert plan.fired
        assert injector.fired == ["wal.append.before_write"]

    def test_torn_write_leaves_a_recoverable_prefix(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(str(tmp_path), fs=FaultFS(injector))
        wal.open()
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})
        injector.arm("wal.append.torn_write", at=1, torn_fraction=0.4)
        with pytest.raises(InjectedCrash):
            wal.append("observe", {"q": [1], "h": [1], "v": [2.0]})
        wal.crash()

        reopened = WriteAheadLog(str(tmp_path))
        records = reopened.open()
        assert [r.lsn for r in records] == [1]
        assert reopened.discarded_tail_records == 1

    def test_fsync_points_require_sync_always(self, tmp_path):
        injector = FaultInjector()
        injector.arm("wal.append.before_fsync", at=1)
        wal = WriteAheadLog(str(tmp_path), fs=FaultFS(injector), sync="os")
        wal.open()
        wal.append("observe", {"q": [0], "h": [0], "v": [1.0]})  # no fsync
        wal.close()
        always = WriteAheadLog(str(tmp_path), fs=FaultFS(injector), sync="always")
        always.open()
        with pytest.raises(InjectedCrash):
            always.append("observe", {"q": [1], "h": [0], "v": [1.0]})


# -- cluster crash and rejoin ------------------------------------------------------


def feed(cluster, tenant, truth, rng, batches=3, size=10):
    """Decision-independent feedback: precomputed (row, hint, truth) cells."""
    n, k = truth.shape
    for _ in range(batches):
        rows = rng.integers(0, n, size=size)
        hints = rng.integers(0, k, size=size)
        cluster.observe_batch(tenant, rows, hints, truth[rows, hints])


class TestClusterCrashRejoin:
    def _populated(self, tmp_path, name, durable=True, fault_fs=None):
        cluster = ServingCluster(
            3,
            4,
            durability_dir=str(tmp_path / name) if durable else None,
            fault_fs=fault_fs,
        )
        rng = np.random.default_rng(3)
        truth = rng.uniform(0.5, 20.0, size=(18, 4))
        names = [f"q{i}" for i in range(18)]
        cluster.add_tenant("web", names)
        rows = np.arange(18)
        cluster.observe_batch("web", rows, np.zeros(18, dtype=np.int64), truth[:, 0])
        best = truth.argmin(axis=1)
        cluster.observe_batch("web", rows, best, truth[rows, best])
        return cluster, truth

    def test_kill_without_durability_raises(self, tmp_path):
        cluster, _ = self._populated(tmp_path, "plain", durable=False)
        with pytest.raises(ClusterError):
            cluster.kill_shard(0)

    def test_kill_restart_is_byte_identical(self, tmp_path):
        subject, truth = self._populated(tmp_path, "subject")
        reference, _ = self._populated(tmp_path, "reference")

        feed(subject, "web", truth, np.random.default_rng(11))
        feed(reference, "web", truth, np.random.default_rng(11))

        subject.kill_shard(0)
        during = subject.serve_all("web")
        assert during.batch_size == 18  # every arrival still answered
        degraded = np.isinf(during.expected_latency)
        assert degraded.any()  # the dead shard owned some rows
        assert during.used_default[degraded].all()  # degrade to default plan

        feed(subject, "web", truth, np.random.default_rng(13))
        feed(reference, "web", truth, np.random.default_rng(13))

        state = subject.restart_shard(0)
        assert state.replayed_records > 0
        stats = subject.stats()
        assert stats.crashes == 1 and stats.restarts == 1
        assert stats.queued_feedback > 0
        assert stats.replayed_feedback == stats.queued_feedback
        assert_identical_decisions(
            subject.serve_all("web"), reference.serve_all("web")
        )

    def test_injected_crash_mid_feedback_auto_kills_and_recovers(self, tmp_path):
        injector = FaultInjector()
        subject, truth = self._populated(
            tmp_path, "faulty", fault_fs=FaultFS(injector)
        )
        reference, _ = self._populated(tmp_path, "reference")
        feed(subject, "web", truth, np.random.default_rng(5))
        feed(reference, "web", truth, np.random.default_rng(5))

        injector.arm("wal.append.torn_write", at=1)
        feed(subject, "web", truth, np.random.default_rng(6))
        feed(reference, "web", truth, np.random.default_rng(6))
        assert subject.stats().crashes == 1
        crashed = [
            sid for sid, shard in subject.shards.items() if shard.crashed
        ]
        assert len(crashed) == 1

        subject.restart_shard(crashed[0])
        assert_identical_decisions(
            subject.serve_all("web"), reference.serve_all("web")
        )

    def test_injected_crash_during_restart_replay_requeues_tail(self, tmp_path):
        injector = FaultInjector()
        subject, truth = self._populated(
            tmp_path, "replay", fault_fs=FaultFS(injector)
        )
        reference, _ = self._populated(tmp_path, "reference")
        feed(subject, "web", truth, np.random.default_rng(5))
        feed(reference, "web", truth, np.random.default_rng(5))

        subject.kill_shard(0)
        feed(subject, "web", truth, np.random.default_rng(8))
        feed(reference, "web", truth, np.random.default_rng(8))
        assert subject.stats().queued_feedback > 0

        # Fire on the second replayed append: one entry applies, the
        # crash re-queues the rest and downs the shard with full
        # bookkeeping (DOWN set + crash counter), so serving keeps
        # degrading instead of raising.
        injector.arm("wal.append.before_write", at=2)
        subject.restart_shard(0)
        stats = subject.stats()
        assert subject.shards[0].crashed
        assert stats.crashes == 2 and stats.restarts == 1
        during = subject.serve_all("web")
        assert during.used_default[np.isinf(during.expected_latency)].all()

        # A further restart drains the re-queued tail; nothing was lost.
        subject.restart_shard(0)
        stats = subject.stats()
        assert stats.restarts == 2
        assert stats.replayed_feedback == stats.queued_feedback
        assert_identical_decisions(
            subject.serve_all("web"), reference.serve_all("web")
        )

    def test_checkpoint_then_operator_kill(self, tmp_path):
        subject, truth = self._populated(tmp_path, "ckpt")
        reference, _ = self._populated(tmp_path, "reference")
        feed(subject, "web", truth, np.random.default_rng(21))
        feed(reference, "web", truth, np.random.default_rng(21))

        completed = subject.checkpoint()
        assert completed == sorted(subject.shards)
        subject.kill_shard(1)
        state = subject.restart_shard(1)
        assert state.snapshot_lsn > 0  # rebuilt from the snapshot
        assert_identical_decisions(
            subject.serve_all("web"), reference.serve_all("web")
        )

    def test_add_shard_during_outage_is_rejected(self, tmp_path):
        cluster, _ = self._populated(tmp_path, "outage")
        cluster.kill_shard(0)
        with pytest.raises(ClusterError):
            cluster.add_shard()

    def test_add_queries_onto_a_crashed_shard_changes_nothing(self, tmp_path):
        cluster, _ = self._populated(tmp_path, "grow")
        cluster.kill_shard(2)
        # The new names route to all three shards; the dead one is handed its
        # rows last, after the others would already have taken theirs.
        names = [f"new{i}" for i in range(12)]
        routed = cluster.router.assign([routing_key("web", name) for name in names])
        assert set(routed.tolist()) == {0, 1, 2}

        def state():
            return (
                {sid: list(shard.keys) for sid, shard in cluster.shards.items()},
                list(cluster.directories["web"].names),
                cluster.directories["web"].shard_of.tobytes(),
                cluster._topology,
            )

        before = state()
        with pytest.raises(ClusterError):
            cluster.add_queries("web", names)
        assert state() == before
        cluster.restart_shard(2)
        assert cluster.add_queries("web", names) == list(range(18, 30))
        assert cluster.serve_all("web").batch_size == 30

    def test_add_tenant_onto_a_crashed_shard_leaves_no_empty_tenant(self, tmp_path):
        cluster, _ = self._populated(tmp_path, "tenant")
        cluster.kill_shard(0)
        names = [f"q{i}" for i in range(8)]
        routed = cluster.router.assign([routing_key("b", name) for name in names])
        assert 0 in routed.tolist()

        def state():
            return (
                list(cluster.tenants),
                {sid: list(shard.keys) for sid, shard in cluster.shards.items()},
                {
                    tenant: (list(d.names), d.shard_of.tobytes())
                    for tenant, d in cluster.directories.items()
                },
                cluster._topology,
            )

        before = state()
        with pytest.raises(ClusterError):
            cluster.add_tenant("b", names)
        assert state() == before
        cluster.restart_shard(0)
        cluster.add_tenant("b", names)  # the retry is not "already registered"
        assert cluster.serve_all("b").batch_size == 8

    def test_restore_backlog_reseeds_controller(self, tmp_path):
        cluster, truth = self._populated(tmp_path, "backlog")
        controller = ClusterAdaptationController(
            cluster, lambda key, hint: 1.0
        )
        rows_on_0 = [
            row
            for row in range(truth.shape[0])
            if cluster.locate("web", [row])[0][0] == 0
        ]
        controller.restore_backlog(0, rows_on_0[:2])
        assert controller.report().backlog_rows == 2


# -- shard-level recovery ----------------------------------------------------------


class TestShardRecovery:
    def test_recover_checks_hint_width(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix(n=6, k=4)
        shard = ClusterShard(0, n_hints=4, journal=journal)
        shard.import_rows(matrix.to_dict())
        shard.crash()
        with pytest.raises(ClusterError):
            ClusterShard.recover(str(tmp_path), shard_id=0, n_hints=9)
        recovered = ClusterShard.recover(str(tmp_path), shard_id=0, n_hints=4)
        assert recovered.matrix.shape == matrix.shape

    @pytest.mark.parametrize("kind", list(HOSTILE_CELLS))
    @pytest.mark.parametrize("door", ["first-import", "later-import"])
    def test_a_refused_import_leaves_the_journal_recoverable(self, tmp_path, door, kind):
        """A payload the shard refuses must not reach its journal, where it
        would fail every later recovery of the shard.  The first import is
        logged by the shard itself, not by the matrix's hook."""
        shard = ClusterShard(0, n_hints=4, journal=ShardJournal(str(tmp_path)))
        if door == "later-import":
            shard.import_rows(make_matrix(n=2).to_dict() | {"query_names": ["a", "b"]})
        before = None if shard.matrix is None else shard.matrix.to_dict()
        with pytest.raises(MatrixError):
            shard.import_rows(hostile_payload(kind))
        assert_same_matrix(shard.matrix, before)
        assert "x" not in shard._rows
        shard.crash()
        recovered = ClusterShard.recover(str(tmp_path), shard_id=0, n_hints=4)
        assert_same_matrix(recovered.matrix, before)
        # The recovered shard takes the same rows once they are valid.
        valid = make_matrix(n=2).to_dict() | {"query_names": ["x", "y"]}
        assert recovered.import_rows(valid)[-1] == recovered.matrix.n_queries - 1

    def test_crashed_shard_rejects_traffic(self, tmp_path):
        journal = ShardJournal(str(tmp_path))
        matrix = make_matrix(n=6, k=4)
        shard = ClusterShard(0, n_hints=4, journal=journal)
        shard.import_rows(matrix.to_dict())
        shard.crash()
        with pytest.raises(ClusterError):
            shard.serve_local(np.array([0]))
        with pytest.raises(ClusterError):
            shard.observe_local([0], [0], [1.0])
        with pytest.raises(ClusterError):
            shard.crash()  # double crash


# -- the truncation property (hypothesis) ------------------------------------------


def _build_prefix_fixture(tmp_path_factory=None, with_snapshot=False):
    """A journaled history plus the expected state after every record.

    Returns ``(segment_blob, boundaries, expected, extra_files)`` where
    ``boundaries[k]`` is the byte offset after ``k`` complete records of
    the *live* segment, ``expected[k]`` the jsonable matrix state those
    records produce, and ``extra_files`` maps extra file names (an
    installed snapshot) to their bytes.
    """
    import tempfile

    home = tempfile.mkdtemp(prefix="repro-wal-fixture-")
    try:
        journal = ShardJournal(home)
        matrix = make_matrix(n=6, k=4, seed=1)
        ServingService(matrix, journal=journal)  # logs the bootstrap import
        snapshot_state = None
        if with_snapshot:
            matrix.observe_batch([0, 1], [1, 2], [3.0, 4.0])
            journal.checkpoint(matrix.to_dict())
            snapshot_state = matrix.to_dict()
        expected = [snapshot_state]
        sizes = []
        before = journal.appended_bytes

        def snap(op):
            nonlocal before
            op()
            sizes.append(journal.appended_bytes - before)
            before = journal.appended_bytes
            expected.append(matrix.to_dict())

        if not with_snapshot:
            # The bootstrap import is the first record of the segment.
            sizes.append(journal.appended_bytes)
            before = journal.appended_bytes
            expected.append(matrix.to_dict())
        snap(lambda: matrix.observe_batch([2, 3], [1, 3], [5.5, 0.125]))
        snap(lambda: matrix.observe_censored(4, 2, 40.0))
        snap(lambda: matrix.add_query("late"))
        snap(lambda: matrix.observe(6, 0, 9.75))
        snap(lambda: matrix.invalidate([1]))
        journal.close()

        live = max(
            name for name in os.listdir(home) if name.startswith("wal-")
        )
        with open(os.path.join(home, live), "rb") as handle:
            blob = handle.read()
        boundaries = [0]
        for size in sizes:
            boundaries.append(boundaries[-1] + size)
        assert boundaries[-1] == len(blob)
        extra = {}
        if with_snapshot:
            with open(os.path.join(home, "snapshot.bin"), "rb") as handle:
                extra["snapshot.bin"] = handle.read()
        return blob, boundaries, expected, extra, live
    finally:
        shutil.rmtree(home, ignore_errors=True)


_PLAIN = _build_prefix_fixture(with_snapshot=False)
_SNAPPED = _build_prefix_fixture(with_snapshot=True)


class TestTruncationProperty:
    """Crash contract: ANY byte-truncation recovers a valid prefix state."""

    @staticmethod
    def _check(fixture, offset):
        import tempfile

        blob, boundaries, expected, extra, live = fixture
        offset = min(offset, len(blob))
        with tempfile.TemporaryDirectory(prefix="repro-cut-") as home:
            for name, payload in extra.items():
                with open(os.path.join(home, name), "wb") as handle:
                    handle.write(payload)
            with open(os.path.join(home, live), "wb") as handle:
                handle.write(blob[:offset])
            complete = max(
                k for k in range(len(boundaries)) if boundaries[k] <= offset
            )
            try:
                _, state = recover_journal(home)
            except WalCorruption:
                # Typed corruption is an allowed outcome of the contract --
                # but pure truncation of a healthy log must never produce it.
                pytest.fail("byte-truncation must recover, not corrupt")
            assert_same_matrix(state.matrix, expected[complete])

    @given(offset=st.integers(min_value=0, max_value=len(_PLAIN[0])))
    @settings(deadline=None, max_examples=60)
    def test_any_truncation_recovers_a_prefix(self, offset):
        self._check(_PLAIN, offset)

    @given(offset=st.integers(min_value=0, max_value=len(_SNAPPED[0])))
    @settings(deadline=None, max_examples=60)
    def test_truncation_past_a_snapshot_recovers_a_prefix(self, offset):
        self._check(_SNAPPED, offset)

    def test_every_exact_boundary_recovers(self):
        _, boundaries, _, _, _ = _PLAIN
        for offset in boundaries:
            self._check(_PLAIN, offset)
