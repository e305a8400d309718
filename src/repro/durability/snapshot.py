"""Point-in-time shard snapshots with atomic installation.

A snapshot captures everything a shard needs to serve again -- the
:class:`~repro.core.workload_matrix.WorkloadMatrix` contents (values,
observed/censored masks, timeouts, names) plus the adaptation backlog --
tagged with the LSN of the last journal record it covers.  The plan-cache
snapshot and serving stats are *derived* state: a recovered shard builds a
fresh service whose cache computes its decisions from the matrix on the
first serve (and patches them row by row after that), so persisting the
matrix persists the decisions.

Install protocol (crash-safe at every step)::

    write snapshot.tmp  ->  fsync  ->  os.replace(tmp, snapshot.bin)

``os.replace`` is atomic on POSIX, so recovery only ever sees either the
old snapshot or the new one -- never a half-written file.  A leftover
``snapshot.tmp`` from a crash mid-write is ignored and overwritten by the
next checkpoint.  The snapshot file reuses the WAL's length+CRC framing;
since it is installed atomically, a framing failure here is always real
corruption and raises :class:`~repro.errors.WalCorruption`.

The envelope is ``schema`` 2; its four matrix arrays follow the JSON header
as raw bytes (the WAL's arrays frame), and a retired shard's envelope, with
no matrix, is plain JSON.  A snapshot in any other form, or whose backlog is
not a list of row ids, raises :class:`~repro.errors.WalCorruption`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from ..errors import WalCorruption
from .faults import FaultFS
from .wal import frame, is_matrix, is_rows, split_arrays, unframe

SNAPSHOT_NAME = "snapshot.bin"
SNAPSHOT_TMP = "snapshot.tmp"
SCHEMA = 2


# -- write / load -----------------------------------------------------------------------------
def write_snapshot(
    directory: str,
    state: Dict[str, Any],
    lsn: int,
    fs: Optional[FaultFS] = None,
) -> str:
    """Atomically install ``state`` as the shard snapshot covering ``lsn``;
    the numpy arrays of ``state["matrix"]`` are written raw."""
    fs = fs if fs is not None else FaultFS()
    matrix, arrays = state.get("matrix"), {}
    if matrix is not None:
        matrix, arrays = split_arrays(matrix)
    envelope = {"lsn": int(lsn), "schema": SCHEMA, "state": {**state, "matrix": matrix}}
    framed = frame(envelope, arrays)
    tmp = os.path.join(directory, SNAPSHOT_TMP)
    final = os.path.join(directory, SNAPSHOT_NAME)
    handle = open(tmp, "wb", buffering=0)
    try:
        fs.write(handle, framed, "snapshot")
        fs.fsync(handle, "snapshot")
    finally:
        handle.close()
    fs.replace(tmp, final, "snapshot")
    return final


def load_snapshot(directory: str) -> Optional[Tuple[Dict[str, Any], int]]:
    """Read the installed snapshot; ``None`` when no checkpoint ever ran.

    Raises :class:`~repro.errors.WalCorruption` on any framing or content
    failure -- snapshots are installed atomically, so a bad one is never
    a benign crash artifact.
    """
    path = os.path.join(directory, SNAPSHOT_NAME)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    decoded = unframe(data, 0, f"snapshot {path}")
    if decoded is None:
        raise WalCorruption(f"snapshot {path} truncated ({len(data)} bytes)")
    obj, arrays, _ = decoded
    state = obj.get("state")
    matrix = state.get("matrix") if isinstance(state, dict) else None
    if (
        type(obj.get("lsn")) is not int  # (a bool is no LSN)
        or obj.get("schema") != SCHEMA
        or not isinstance(state, dict)
        or not is_rows(state.get("backlog"))
    ):
        raise WalCorruption(f"snapshot {path} has a malformed envelope")
    if matrix is None and not arrays:
        return state, obj["lsn"]
    if not isinstance(matrix, dict) or not is_matrix(matrix, arrays):
        raise WalCorruption(f"snapshot {path} does not hold its matrix in raw array frames")
    state["matrix"] = {**matrix, **arrays}
    return state, obj["lsn"]
