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

The four matrix arrays go through the WAL's array codec
(:func:`~repro.durability.wal.pack_array`) -- ``schema`` 2.  Schema 1
wrote them as nested lists; readers still accept it, writers never emit it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import WalCorruption
from .faults import FaultFS
from .wal import frame, pack_array, unframe, unpack_array

SNAPSHOT_NAME = "snapshot.bin"
SNAPSHOT_TMP = "snapshot.tmp"
SCHEMAS = (1, 2)  # readable; writers emit the last

#: The arrays of a matrix payload and the one dtype each may carry on disk.
MATRIX_ARRAYS = {"values": "<f8", "observed": "|b1", "censored": "|b1", "timeouts": "<f8"}


# -- matrix state <-> JSON-able ---------------------------------------------------------
def matrix_to_jsonable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a ``WorkloadMatrix.to_dict()`` / ``export_rows`` payload to
    pure JSON types: arrays packed bit-exactly, the rest (names) as it is.
    Already converted payloads pass through unchanged."""
    return {
        key: pack_array(value, MATRIX_ARRAYS[key]) if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
    }


def matrix_from_jsonable(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`matrix_to_jsonable` (numpy arrays restored).

    Raises :class:`~repro.errors.WalCorruption` for an array that does not
    decode; that the four are 2-D and of one shape is
    :meth:`WorkloadMatrix.from_dict` / ``import_rows``'s check, where the
    payload goes next.
    """
    out = dict(obj)
    for key, dtype in MATRIX_ARRAYS.items():
        out[key] = unpack_array(obj.get(key), dtype)  # a missing one decodes 0-d
    return out


# -- write / load -----------------------------------------------------------------------------
def write_snapshot(
    directory: str,
    state: Dict[str, Any],
    lsn: int,
    fs: Optional[FaultFS] = None,
) -> str:
    """Atomically install ``state`` as the shard snapshot covering ``lsn``."""
    fs = fs if fs is not None else FaultFS()
    framed = frame({"lsn": int(lsn), "schema": SCHEMAS[-1], "state": state})
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
    obj, _ = decoded
    if (
        not isinstance(obj.get("lsn"), int)
        or not isinstance(obj.get("state"), dict)
        or obj.get("schema") not in SCHEMAS
    ):
        raise WalCorruption(f"snapshot {path} has a malformed envelope")
    return obj["state"], obj["lsn"]
