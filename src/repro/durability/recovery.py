"""Crash recovery: snapshot + WAL replay back to a live serving state.

The sequence is exactly the classic one:

1. open the journal directory -- this loads the snapshot envelope,
   validates every WAL segment, and physically discards a torn final
   record (:class:`~repro.durability.journal.ShardJournal` does all of
   this in its constructor);
2. rebuild the matrix from the snapshot (or from nothing);
3. replay every WAL record with ``lsn > snapshot.lsn`` in order, skipping
   the ones the snapshot already covers;
4. resume appending at ``last_lsn + 1`` on the same journal.

Replay invariants:

* a record that fails to apply is *corruption*, not a crash artifact --
  the WAL only ever holds records that applied cleanly before, so a
  replay error means the log and snapshot disagree and recovery raises
  :class:`~repro.errors.WalCorruption` rather than guess;
* replay never writes to the journal (the records are already there);
* the rebuilt matrix's decision-relevant state (values, masks, timeouts,
  names) is byte-identical to the pre-crash matrix, because both the
  snapshot and the WAL round-trip doubles exactly.  The plan cache is
  derived state: the recovered service computes it on its first serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.workload_matrix import WorkloadMatrix
from ..errors import DurabilityError, MatrixError, ReproError, WalCorruption
from .faults import FaultFS
from .journal import ShardJournal
from .snapshot import matrix_from_jsonable
from .wal import WalRecord, unpack_array


@dataclass
class RecoveredState:
    """What came back from disk: the state plus replay accounting."""

    matrix: Optional[WorkloadMatrix]
    backlog: np.ndarray
    snapshot_lsn: int
    next_lsn: int
    replayed_records: int
    skipped_records: int
    measured_records: int = 0
    elapsed_s: float = field(default=0.0)


def _apply_record(
    matrix: Optional[WorkloadMatrix], record: WalRecord
) -> Optional[WorkloadMatrix]:
    """Apply one WAL record to the matrix being rebuilt (may create it)."""
    kind, data = record.kind, record.data
    if kind == "import":
        payload = matrix_from_jsonable(data)
        if matrix is None:
            return WorkloadMatrix.from_dict(payload)
        matrix.import_rows(payload)
        return matrix
    if kind == "retire":
        return None
    if matrix is None:
        raise WalCorruption(
            f"record {record.lsn} ({kind}) targets a matrix that does not exist yet"
        )
    if kind == "observe":
        matrix.observe_batch(
            unpack_array(data["q"], "<i8"),
            unpack_array(data["h"], "<i8"),
            unpack_array(data["v"], "<f8"),
        )
    elif kind == "censor":
        matrix.observe_censored(data["q"], data["h"], data["lb"])
    elif kind == "invalidate":
        rows = data.get("rows")
        matrix.invalidate(None if rows is None else rows)
    elif kind == "add_query":
        matrix.add_query(data.get("name"))
    elif kind == "remove":
        matrix.remove_queries(data["rows"])
    else:  # pragma: no cover - RECORD_KINDS is closed; guards future kinds
        raise WalCorruption(f"record {record.lsn} has unreplayable kind {kind!r}")
    return matrix


def recover_journal(
    directory: str,
    fs: Optional[FaultFS] = None,
    sync: str = "os",
    clock=time.perf_counter,
) -> "tuple[ShardJournal, RecoveredState]":
    """Open ``directory``, replay it, and return (resumed journal, state).

    The returned journal is live: its next append lands at
    ``state.next_lsn`` on the segment the crash left behind (torn tail
    already repaired).  The caller attaches it to the rebuilt matrix so
    new mutations keep journaling seamlessly.
    """
    started = clock()
    journal = ShardJournal(directory, fs=fs, sync=sync)
    snapshot_lsn = 0
    matrix: Optional[WorkloadMatrix] = None
    backlog: list = []
    if journal.recovered_snapshot is not None:
        state, snapshot_lsn = journal.recovered_snapshot
        raw_matrix = state.get("matrix")
        if raw_matrix is not None:
            try:
                matrix = WorkloadMatrix.from_dict(matrix_from_jsonable(raw_matrix))
            except MatrixError as exc:
                raise WalCorruption(
                    f"snapshot at LSN {snapshot_lsn} does not hold a matrix: {exc}"
                ) from exc
        backlog = [int(r) for r in state.get("backlog", [])]
    replayed = 0
    skipped = 0
    measured = 0
    records = journal.take_recovered_records()
    if records and records[0].lsn > snapshot_lsn + 1:
        # The WAL alone cannot condemn a log whose first segment starts
        # past LSN 1 -- that is what checkpoint truncation legitimately
        # leaves behind.  But the snapshot knows how far coverage
        # reaches; surviving records starting beyond it mean history
        # between the two was lost (e.g. a segment file deleted).
        raise WalCorruption(
            f"history gap: snapshot covers LSN {snapshot_lsn} but the "
            f"first surviving WAL record is {records[0].lsn}"
        )
    for record in records:
        if record.lsn <= snapshot_lsn:
            skipped += 1
            continue
        if record.kind == "measured":
            measured += 1
            replayed += 1
            continue
        if record.kind == "adapt":
            backlog = [int(r) for r in record.data.get("rows", [])]
            replayed += 1
            continue
        try:
            matrix = _apply_record(matrix, record)
        except WalCorruption:
            raise
        except ReproError as exc:
            raise WalCorruption(
                f"record {record.lsn} ({record.kind}) failed to replay: {exc}"
            ) from exc
        replayed += 1
    journal.note_backlog(backlog)
    state = RecoveredState(
        matrix=matrix,
        backlog=np.asarray(backlog, dtype=np.int64),
        snapshot_lsn=snapshot_lsn,
        next_lsn=journal.next_lsn,
        replayed_records=replayed,
        skipped_records=skipped,
        measured_records=measured,
        elapsed_s=clock() - started,
    )
    return journal, state


def recover_service(
    directory: str,
    default_hint: int = 0,
    regression_margin: float = 1.0,
    recorder=None,
    fs: Optional[FaultFS] = None,
    sync: str = "os",
    clock=time.perf_counter,
):
    """Recover a directory straight into a live :class:`ServingService`.

    Convenience for single-service deployments (the cluster drives
    :func:`recover_journal` itself through ``ClusterShard.recover``).
    Raises :class:`~repro.errors.DurabilityError` when the journal holds
    no matrix -- an empty shard has no service to resume.
    """
    from ..serving.service import ServingService

    journal, state = recover_journal(directory, fs=fs, sync=sync, clock=clock)
    if state.matrix is None:
        journal.close()
        raise DurabilityError(
            f"journal at {directory} holds no matrix state; nothing to serve"
        )
    service = ServingService(
        state.matrix,
        default_hint=default_hint,
        regression_margin=regression_margin,
        recorder=recorder,
        journal=journal,
    )
    return service, state
