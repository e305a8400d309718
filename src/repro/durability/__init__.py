"""Durable shard state: write-ahead log, snapshots, crash recovery.

See ``docs/durability.md`` for the record format, the snapshot install
protocol, the recovery invariants, and the fault-point map.
"""

from .faults import FAULT_POINTS, FaultClock, FaultFS, FaultInjector, FaultPlan
from .journal import ShardJournal
from .recovery import RecoveredState, recover_journal
from .snapshot import load_snapshot, write_snapshot
from .wal import RECORD_KINDS, WalRecord, WriteAheadLog, encode_record

__all__ = [
    "FAULT_POINTS",
    "FaultClock",
    "FaultFS",
    "FaultInjector",
    "FaultPlan",
    "RECORD_KINDS",
    "RecoveredState",
    "ShardJournal",
    "WalRecord",
    "WriteAheadLog",
    "encode_record",
    "load_snapshot",
    "recover_journal",
    "write_snapshot",
]
