"""Crash recovery: snapshot + WAL replay back to a live serving state.

The sequence is exactly the classic one:

1. open the journal directory -- this loads the snapshot envelope,
   validates every WAL segment, and physically discards a torn final
   record (:class:`~repro.durability.journal.ShardJournal` does all of
   this in its constructor);
2. rebuild the matrix from the snapshot (or from nothing);
3. replay every WAL record with ``lsn > snapshot.lsn`` in order, skipping
   the ones the snapshot already covers; a run of consecutive ``observe``
   records is applied as one ``observe_batch`` of each cell's last write;
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

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.workload_matrix import WorkloadMatrix, checked_cells
from ..errors import MatrixError, ReproError, WalCorruption
from .faults import FaultFS
from .journal import ShardJournal
from .wal import WalRecord


@dataclass
class RecoveredState:
    """What came back from disk: the state plus replay accounting."""

    matrix: Optional[WorkloadMatrix]
    backlog: np.ndarray
    snapshot_lsn: int
    next_lsn: int
    replayed_records: int
    skipped_records: int


def _observe_run(matrix: WorkloadMatrix, run: List[WalRecord]) -> None:
    """Apply consecutive ``observe`` records as one ``observe_batch``: every
    cell is checked as its own record would have been, then only each cell's
    last write is applied -- the state the records leave one after another."""
    q, h, v = checked_cells(
        "observe",
        *(np.concatenate([record.data[key] for record in run]) for key in ("q", "h", "v")),
        matrix.shape,
        False,
        MatrixError,
    )
    n_queries, n_hints = matrix.shape
    cells, position = q * n_hints + h, np.arange(q.size)
    last = np.full(n_queries * n_hints, -1)
    np.maximum.at(last, cells, position)
    keep = last[cells] == position  # each cell's last write, in log order
    matrix.observe_batch(q[keep], h[keep], v[keep])


def _replay(
    matrix: Optional[WorkloadMatrix], batch: List[WalRecord]
) -> Optional[WorkloadMatrix]:
    """Apply one record, or a run of ``observe`` records, to the matrix being
    rebuilt (may create it); one that fails to apply is corruption."""
    record = batch[0]
    kind, data = record.kind, record.data
    where = f"record {record.lsn}" + (f"-{batch[-1].lsn}" if len(batch) > 1 else "")
    if matrix is None and kind not in ("import", "retire"):
        raise WalCorruption(f"{where} ({kind}) targets a matrix that does not exist yet")
    try:
        if kind == "import":
            if matrix is None:
                return WorkloadMatrix.from_dict(data)
            matrix.import_rows(data)
        elif kind == "retire":
            return None
        elif kind == "observe":
            _observe_run(matrix, batch)
        elif kind == "censor":
            matrix.observe_censored_batch(data["q"], data["h"], data["lb"])
        elif kind == "invalidate":
            matrix.invalidate(data["rows"])
        elif kind == "add_query":
            matrix.add_query(data["name"])
        else:  # "remove": RECORD_KINDS is closed, and the caller applies "adapt"
            matrix.remove_queries(data["rows"])
    except ReproError as exc:
        if isinstance(exc, WalCorruption):
            raise
        raise WalCorruption(f"{where} ({kind}) failed to replay: {exc}") from exc
    return matrix


def recover_journal(
    directory: str,
    fs: Optional[FaultFS] = None,
    sync: str = "os",
) -> "tuple[ShardJournal, RecoveredState]":
    """Open ``directory``, replay it, and return (resumed journal, state).

    The returned journal is live: its next append lands at
    ``state.next_lsn`` on the segment the crash left behind (torn tail
    already repaired).  The caller attaches it to the rebuilt matrix so
    new mutations keep journaling seamlessly.
    """
    journal = ShardJournal(directory, fs=fs, sync=sync)
    snapshot_lsn = 0
    matrix: Optional[WorkloadMatrix] = None
    backlog: list = []
    if journal.recovered_snapshot is not None:
        state, snapshot_lsn = journal.recovered_snapshot
        raw_matrix = state.get("matrix")
        if raw_matrix is not None:
            try:
                matrix = WorkloadMatrix.from_dict(raw_matrix)
            except MatrixError as exc:
                raise WalCorruption(
                    f"snapshot at LSN {snapshot_lsn} does not hold a matrix: {exc}"
                ) from exc
        backlog = state["backlog"]
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
    live = [record for record in records if record.lsn > snapshot_lsn]
    # A run of consecutive observe records is one batch; any other record, its own.
    for observes, group in itertools.groupby(live, key=lambda r: r.kind == "observe"):
        for batch in [list(group)] if observes else [[record] for record in group]:
            if batch[0].kind == "adapt":
                backlog = batch[0].data["rows"]
            else:
                matrix = _replay(matrix, batch)
    journal.note_backlog(backlog)
    state = RecoveredState(
        matrix=matrix,
        backlog=np.asarray(backlog, dtype=np.int64),
        snapshot_lsn=snapshot_lsn,
        next_lsn=journal.next_lsn,
        replayed_records=len(live),
        skipped_records=len(records) - len(live),
    )
    return journal, state
