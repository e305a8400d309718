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
as raw bytes (the WAL's arrays frame).  Older snapshots kept them inside the
JSON, as nested lists (schema 1) or base64 (schema 2); readers still accept
both, writers emit neither.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from ..errors import WalCorruption
from .faults import FaultFS
from .wal import ARRAY_FIELDS, frame, split_arrays, unframe, unpack_array

SNAPSHOT_NAME = "snapshot.bin"
SNAPSHOT_TMP = "snapshot.tmp"
SCHEMAS = (1, 2)  # readable; writers emit the last


def matrix_from_jsonable(obj: Dict[str, Any]) -> Dict[str, Any]:
    """A matrix payload from disk with its four arrays decoded from any form
    (:func:`~repro.durability.wal.unpack_array`; one that does not decode is
    :class:`~repro.errors.WalCorruption`).  That they agree on a 2-D shape is
    the check of ``WorkloadMatrix.from_dict`` / ``import_rows``, next."""
    out = dict(obj)
    for key, dtype in ARRAY_FIELDS.items():
        out[key] = unpack_array(obj.get(key), dtype)  # a missing one decodes 0-d
    return out


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
    envelope = {"lsn": int(lsn), "schema": SCHEMAS[-1], "state": {**state, "matrix": matrix}}
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
    if (
        not isinstance(obj.get("lsn"), int)
        or not isinstance(state, dict)
        or obj.get("schema") not in SCHEMAS
        or (arrays and not isinstance(state.get("matrix"), dict))
    ):
        raise WalCorruption(f"snapshot {path} has a malformed envelope")
    if arrays:
        state["matrix"] = {**state["matrix"], **arrays}
    return state, obj["lsn"]
