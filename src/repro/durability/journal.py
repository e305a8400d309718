"""Per-shard journal: the durability façade the serving stack talks to.

:class:`ShardJournal` owns one directory containing WAL segments and at
most one installed snapshot.  Opening a journal *is* the scan phase of
recovery: the constructor reads the snapshot envelope and every surviving
WAL record (repairing torn tails), then hands them to
:mod:`repro.durability.recovery` for replay.  On a fresh directory the
scan is trivially empty and the journal starts logging at LSN 1.

The logging convention is **write-ahead**: callers append the record and
only then mutate in-memory state.  Every logged mutation is idempotent
(``observe`` overwrites the same cells, ``censor`` keeps the max lower
bound, ``invalidate`` clears), so a record that was both replayed from
the WAL *and* re-applied by a supervisor retry converges to the same
state -- the property the cluster's outage feedback queue relies on.

The journal also caches the latest adaptation backlog it has logged
(``adapt`` records).  Checkpoints embed that cache in the snapshot, so
truncating the log never loses the backlog of a response in progress.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..telemetry.runtime import JournalMetrics
from ..telemetry.tracing import OFF
from .faults import FaultFS
from .snapshot import load_snapshot, write_snapshot
from .wal import WalRecord, WriteAheadLog


class ShardJournal:
    """Write-ahead journal + snapshot manager for one shard directory.

    Parameters
    ----------
    directory:
        The shard's durability home.  Created if missing; scanned (and
        torn tails repaired) if it already holds state.
    fs:
        Optional :class:`~repro.durability.faults.FaultFS` seam shared
        with the fault injector.
    sync:
        WAL sync policy, forwarded to
        :class:`~repro.durability.wal.WriteAheadLog`.
    """

    def __init__(self, directory: str, fs: Optional[FaultFS] = None, sync: str = "os") -> None:
        self.directory = directory
        self.fs = fs if fs is not None else FaultFS()
        os.makedirs(directory, exist_ok=True)
        self.recovered_snapshot: Optional[Tuple[Dict[str, Any], int]]
        self.recovered_snapshot = load_snapshot(directory)
        self.wal = WriteAheadLog(directory, fs=self.fs, sync=sync)
        self._recovered_records: Optional[List[WalRecord]] = self.wal.open()
        snapshot = self.recovered_snapshot
        self._last_backlog: List[int] = [] if snapshot is None else list(snapshot[0]["backlog"])
        # Append/checkpoint counts live in these cells only: on a private
        # registry until the owning service binds a telemetry context.
        self._metrics = JournalMetrics()
        self._base = dict.fromkeys(JournalMetrics.__slots__, 0.0)
        # The owning service binds its tracer (same binding); until then
        # log() is off the clock.
        self._tracer = OFF

    def bind_telemetry(self, telemetry) -> None:
        """Count in ``telemetry``'s registry and time the ``wal.append`` stage.

        With ``telemetry=None`` the journal keeps counting on its private
        registry and reads no clock.
        """
        if telemetry is None:
            return
        metrics = JournalMetrics(telemetry.registry, telemetry.shard_label)
        if metrics.wal_records is not self._metrics.wal_records:
            self._count_in(metrics)
        self._tracer = telemetry.tracer

    def _count_in(self, metrics: JournalMetrics) -> None:
        """Count in ``metrics`` from now on, carrying this journal's counts so
        far into them: a shard's cells span its journals.  A crashed journal
        moves to private cells, which freezes its views."""
        for name, base in self._base.items():
            cell = getattr(metrics, name)
            own = getattr(self._metrics, name).value - base
            self._base[name] = cell.value
            cell.inc(own)
        self._metrics = metrics

    # -- recovery handoff -------------------------------------------------------------
    def take_recovered_records(self) -> List[WalRecord]:
        """Surviving WAL records, once; the cache is dropped afterwards."""
        records = self._recovered_records or []
        self._recovered_records = None
        return records

    def note_backlog(self, rows: Sequence[int]) -> None:
        """Seed the backlog cache after replay (no record is written)."""
        self._last_backlog = [int(r) for r in rows]

    # -- raw logging -------------------------------------------------------------------
    def log(self, kind: str, data: Dict[str, Any]) -> int:
        """Append one record; returns its LSN."""
        start = self._tracer.begin("wal.append")
        lsn, size = self.wal.append(kind, data)
        self._tracer.end("wal.append", start)
        self._metrics.wal_records.inc()
        self._metrics.wal_bytes.inc(size)
        return lsn

    # -- typed logging (the hooks the stack calls) ----------------------------------
    def log_observe(self, queries, hints, latencies) -> int:
        """One batch of completed executions (also used for single cells)."""
        return self.log("observe", {"q": queries, "h": hints, "v": latencies})

    def log_censor(self, queries, hints, lower_bounds) -> int:
        """One batch of timed-out executions (also used for single cells)."""
        return self.log("censor", {"q": queries, "h": hints, "lb": lower_bounds})

    def log_invalidate(self, rows: Optional[Iterable[int]]) -> int:
        payload = None if rows is None else [int(r) for r in rows]
        return self.log("invalidate", {"rows": payload})

    def log_add_query(self, name: Optional[str]) -> int:
        return self.log("add_query", {"name": name})

    def log_import(self, payload: Dict[str, Any]) -> int:
        """Row migration in; ``payload`` is ``export_rows`` / ``to_dict`` state."""
        return self.log("import", payload)

    def log_remove(self, rows: Iterable[int]) -> int:
        return self.log("remove", {"rows": [int(r) for r in rows]})

    def log_retire(self) -> int:
        """The shard gave away its last row; the matrix is gone."""
        return self.log("retire", {})

    def log_adapt_backlog(self, rows: Sequence[int]) -> int:
        """Adaptation-response progress: the backlog still owed."""
        rows_list = [int(r) for r in rows]
        lsn = self.log("adapt", {"rows": rows_list})
        self._last_backlog = rows_list
        return lsn

    # -- checkpointing ------------------------------------------------------------------
    def checkpoint(self, matrix_state: Optional[Dict[str, Any]]) -> int:
        """Snapshot current state, rotate the WAL, truncate old segments.

        ``matrix_state`` is the matrix's ``to_dict()`` payload (or ``None``
        for a retired shard); the cached adaptation backlog rides along.  The
        snapshot covers every record appended so far, so all closed
        segments become garbage and are unlinked.  Returns the covered LSN.
        """
        lsn = self.wal.next_lsn - 1
        state = {"matrix": matrix_state, "backlog": list(self._last_backlog)}
        write_snapshot(self.directory, state, lsn, fs=self.fs)
        self.wal.rotate()
        self.wal.truncate_through(lsn)
        self._metrics.checkpoints.inc()
        return lsn

    # -- observability -----------------------------------------------------------------------
    def _count(self, name: str) -> int:
        """This journal's count since it opened: its cell minus ``_base``,
        the cell's value when this journal began counting there."""
        return int(getattr(self._metrics, name).value - self._base[name])

    appended_records = property(lambda self: self._count("wal_records"))
    appended_bytes = property(lambda self: self._count("wal_bytes"))
    checkpoints = property(lambda self: self._count("checkpoints"))

    @property
    def next_lsn(self) -> int:
        return self.wal.next_lsn

    def on_disk_bytes(self) -> int:
        """Bytes held by WAL segments plus the installed snapshot."""
        total = self.wal.on_disk_bytes()
        snap = os.path.join(self.directory, "snapshot.bin")
        if os.path.exists(snap):
            total += os.path.getsize(snap)
        return total

    # -- lifecycle --------------------------------------------------------------------------
    def close(self) -> None:
        """Clean shutdown (does not checkpoint; callers decide that)."""
        self.wal.close()

    def crash(self) -> None:
        """Simulated process death: drop file handles, keep disk as-is."""
        self.wal.crash()
        self._count_in(JournalMetrics())
