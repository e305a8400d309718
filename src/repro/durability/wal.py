"""Append-only per-shard write-ahead log.

Record framing (little-endian)::

    +----------------+----------------+----------------------+
    | length: u32    | crc32: u32     | payload (JSON bytes) |
    +----------------+----------------+----------------------+

The payload is compact sorted-key JSON ``{"data": {...}, "kind": k,
"lsn": n}``.  Scalar floats use JSON's ``repr``-based encoding; arrays
go through the one array codec, :func:`pack_array` /
:func:`unpack_array` -- dtype + shape + base64 of the raw little-endian
bytes (1-D ``observe``/``measured`` batches keep the bare string of
:func:`pack_flat`).  Both round-trip IEEE-754 doubles exactly, which is
what makes *byte-identical* replay possible: a latency observed before a
crash deserializes to the very same double after recovery, so the plan
cache reaches the very same decisions.

LSNs are assigned by the log, start at 1, and are strictly contiguous
across the whole journal.  The log is split into segment files named
``wal-<first_lsn>.log`` so a checkpoint can drop history by unlinking
whole segments (:meth:`WriteAheadLog.truncate_through`) instead of
rewriting files.

Torn-tail rule (the crash contract):

* a record whose framing runs past end-of-file is a **torn tail** -- the
  normal leftover of a crash mid-append.  It is discarded on open (and
  the file is physically truncated back to the last complete record) and
  is *not* an error;
* a complete record whose CRC or JSON fails, or an LSN that is not
  exactly ``previous + 1``, **is** an error and raises
  :class:`~repro.errors.WalCorruption`.

Because appends only ever grow a segment, truncating a healthy log at an
arbitrary byte offset can only produce the torn-tail case -- never a CRC
mismatch -- so recovery from truncation always lands on a valid prefix
state.  That property is enforced by a hypothesis test.
"""

from __future__ import annotations

import base64
import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import DurabilityError, WalCorruption
from .faults import FaultFS

_HEADER = struct.Struct("<II")
_SEGMENT_RE = re.compile(r"^wal-(\d{20})\.log$")

#: Records the journal understands; recovery rejects anything else.
RECORD_KINDS = (
    "observe",     # batched observe: {"q": b64 i64, "h": b64 i64, "v": b64 f64}
    "censor",      # censored observation: {"q": i, "h": j, "lb": x}
    "invalidate",  # {"rows": [...] | None}  (None = whole matrix)
    "add_query",   # {"name": str}
    "import",      # row migration in: matrix rows, arrays via pack_array
    "remove",      # row migration out: {"rows": [...]}
    "retire",      # shard gave away its last row: {}
    "measured",    # executed-decision audit, no longer written: {"q", "h", "m"}
    "adapt",       # adaptation-response backlog: {"rows": [...]}
)


@dataclass(frozen=True)
class WalRecord:
    """One decoded journal record."""

    lsn: int
    kind: str
    data: Dict[str, Any]
    size: int  # framed size in bytes, header included


def _segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:020d}.log"


def pack_flat(values, dtype: str) -> str:
    """Base64 of ``values``' raw little-endian bytes as ``dtype``: bit-exact
    (``inf``, ``-0.0``, subnormals).  The bare form of the 1-D ``observe``
    batches, whose shape is their length."""
    array = np.asarray(values, dtype=dtype, order="C")
    return base64.b64encode(array.tobytes()).decode("ascii")


def pack_array(values: np.ndarray, dtype: str) -> Dict[str, Any]:
    """An n-d array as ``{"dtype", "shape", "data"}``: ~8x cheaper than
    ``tolist()`` + float-``repr`` JSON, and smaller."""
    return {"dtype": dtype, "shape": list(values.shape), "data": pack_flat(values, dtype)}


def unpack_array(packed, dtype: str) -> np.ndarray:
    """Decode any array form the journal has ever written, as ``dtype``:
    a :func:`pack_array` dict, a bare :func:`pack_flat` string, or (nested)
    lists -- the schema-1 form, also handy for crafted records.

    Disk input is outside input.  Each field may claim one dtype (``<f8``
    values, ``|b1`` flags, ``<i8`` indices; the caller names it): any
    other, a malformed shape, or a byte count that does not fit the shape
    raise :class:`~repro.errors.WalCorruption`.
    """
    try:
        if isinstance(packed, str):
            return np.frombuffer(base64.b64decode(packed), dtype=dtype)
        if not isinstance(packed, dict):
            return np.asarray(packed, dtype=dtype)
        shape = packed["shape"]
        if (
            packed["dtype"] != dtype
            or not isinstance(shape, list)
            or not all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"dtype {packed['dtype']!r} / shape {shape!r}")
        # frombuffer checks the byte count against the item size, reshape
        # against the shape.
        return np.frombuffer(base64.b64decode(packed["data"]), dtype=dtype).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruption(f"undecodable {dtype} array: {exc}") from exc


def frame(obj: Dict[str, Any]) -> bytes:
    """``obj`` as compact sorted-key JSON behind the length+CRC header
    (WAL records and the snapshot file share this frame)."""
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_record(lsn: int, kind: str, data: Dict[str, Any]) -> bytes:
    """Frame one record (exposed for tests that craft WAL bytes)."""
    return frame({"data": data, "kind": kind, "lsn": int(lsn)})


def unframe(data: bytes, offset: int, where: str) -> Optional[Tuple[Dict[str, Any], int]]:
    """Decode the frame at ``offset``: ``(object, end offset)``.

    ``None`` when the frame runs past the end of ``data`` (torn); a
    complete frame whose CRC or JSON fails raises
    :class:`~repro.errors.WalCorruption` naming ``where``.
    """
    start = offset + _HEADER.size
    if start > len(data):
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        return None
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        raise WalCorruption(f"CRC mismatch in {where} at byte {offset}")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalCorruption(f"unreadable frame in {where} at byte {offset}: {exc}") from exc
    if not isinstance(obj, dict):
        raise WalCorruption(f"malformed frame in {where} at byte {offset}")
    return obj, end


def _read_segment(path: str) -> Tuple[List[WalRecord], int, bool]:
    """Decode one segment; returns (records, good_bytes, had_torn_tail)."""
    with open(path, "rb") as handle:
        data = handle.read()
    name = os.path.basename(path)
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        decoded = unframe(data, offset, name)
        if decoded is None:
            return records, offset, True
        obj, end = decoded
        if (
            not isinstance(obj.get("lsn"), int)
            or obj.get("kind") not in RECORD_KINDS
            or not isinstance(obj.get("data"), dict)
        ):
            raise WalCorruption(f"malformed record in {name} at byte {offset}")
        records.append(
            WalRecord(lsn=obj["lsn"], kind=obj["kind"], data=obj["data"], size=end - offset)
        )
        offset = end
    return records, offset, False


class WriteAheadLog:
    """Segmented append-only log for one shard.

    Parameters
    ----------
    directory:
        Home of the segment files (created if missing).
    fs:
        The :class:`~repro.durability.faults.FaultFS` seam; defaults to a
        pass-through.
    sync:
        ``"os"`` (default) hands every record to the kernel with an
        unbuffered ``write`` -- durable across *process* crashes, which is
        the failure model of an in-process shard.  ``"always"`` adds an
        fsync per append for power-loss durability (and is what the chaos
        suite uses to reach the fsync fault points).
    """

    def __init__(self, directory: str, fs: Optional[FaultFS] = None, sync: str = "os") -> None:
        if sync not in ("os", "always"):
            raise DurabilityError(f"sync must be 'os' or 'always', got {sync!r}")
        self.directory = directory
        self.fs = fs if fs is not None else FaultFS()
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self.next_lsn = 1
        self._segments: List[Tuple[int, str]] = []  # (first_lsn, path), sorted
        self._segment_path: Optional[str] = None
        self._handle = None
        self.appended_records = 0
        self.appended_bytes = 0
        self.truncated_bytes = 0
        self.discarded_tail_records = 0

    # -- opening / scanning ----------------------------------------------------------
    def open(self, repair: bool = True) -> List[WalRecord]:
        """Scan every segment, validate, repair torn tails, resume appends.

        Returns all surviving records in LSN order.  ``repair=False``
        reads without truncating torn bytes (inspection mode).
        """
        names = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                names.append((int(match.group(1)), name))
        names.sort()
        records: List[WalRecord] = []
        self._segments = []
        expected: Optional[int] = None
        for first_lsn, name in names:
            path = os.path.join(self.directory, name)
            seg_records, good_offset, torn = _read_segment(path)
            if torn:
                self.discarded_tail_records += 1
                if repair:
                    size = os.path.getsize(path)
                    with open(path, "r+b") as handle:
                        handle.truncate(good_offset)
                    self.truncated_bytes += size - good_offset
            for record in seg_records:
                if expected is not None and record.lsn != expected:
                    raise WalCorruption(
                        f"LSN gap in {name}: expected {expected}, found {record.lsn}"
                    )
                if expected is None and record.lsn != first_lsn:
                    raise WalCorruption(
                        f"segment {name} starts at LSN {record.lsn}, "
                        f"name promises {first_lsn}"
                    )
                expected = record.lsn + 1
                records.append(record)
            self._segments.append((first_lsn, path))
        if records:
            self.next_lsn = records[-1].lsn + 1
        elif names:
            # No record survived but segments exist -- the normal leftover
            # of a checkpoint (rotate + truncate keeps one empty segment)
            # followed by a crash or clean reopen.  Resume at the LSN the
            # last segment's name promises: restarting at 1 would append
            # pre-snapshot LSNs into a later-named segment, failing the
            # name/LSN consistency check on the *next* open and silently
            # skipping those records during snapshot replay.
            self.next_lsn = names[-1][0]
        else:
            self.next_lsn = 1
        if self._segments:
            self._segment_path = self._segments[-1][1]
        else:
            self._start_segment(self.next_lsn)
        return records

    def _start_segment(self, first_lsn: int) -> None:
        path = os.path.join(self.directory, _segment_name(first_lsn))
        # Touch eagerly so truncate_through can size every listed segment.
        with open(path, "ab"):
            pass
        self._segments.append((first_lsn, path))
        self._segment_path = path

    def _ensure_handle(self):
        if self._handle is None:
            if self._segment_path is None:
                self.open()
            self._handle = open(self._segment_path, "ab", buffering=0)
        return self._handle

    # -- appending -------------------------------------------------------------------
    def append(self, kind: str, data: Dict[str, Any]) -> int:
        """Frame, write (and optionally fsync) one record; returns its LSN.

        The record is on disk *before* the caller mutates any in-memory
        state -- that ordering is the whole write-ahead contract.
        """
        if kind not in RECORD_KINDS:
            raise DurabilityError(f"unknown record kind {kind!r}")
        framed = encode_record(self.next_lsn, kind, data)
        handle = self._ensure_handle()
        self.fs.write(handle, framed, "wal.append")
        if self.sync == "always":
            self.fs.fsync(handle, "wal.append")
        lsn = self.next_lsn
        self.next_lsn += 1
        self.appended_records += 1
        self.appended_bytes += len(framed)
        return lsn

    # -- rotation / truncation ----------------------------------------------------------
    def rotate(self) -> None:
        """Close the live segment and start a fresh one at ``next_lsn``."""
        self.close()
        if self._segments and self._segments[-1][0] == self.next_lsn:
            # Nothing was appended since the last rotation: the live
            # segment is still empty, and listing its path twice would make
            # a later truncate_through unlink it and then size it again.
            return
        self._start_segment(self.next_lsn)

    def truncate_through(self, lsn: int) -> int:
        """Unlink every closed segment fully covered by ``lsn``.

        A segment is removable when it is not the live segment and its
        successor starts at or below ``lsn + 1`` (i.e. every record in it
        has LSN <= ``lsn``).  Returns the number of bytes reclaimed.
        """
        reclaimed = 0
        keep: List[Tuple[int, str]] = []
        for index, (first_lsn, path) in enumerate(self._segments):
            has_next = index + 1 < len(self._segments)
            covered = has_next and self._segments[index + 1][0] <= lsn + 1
            if path != self._segment_path and covered:
                size = os.path.getsize(path)
                self.fs.remove(path, "wal.truncate")
                reclaimed += size
                self.truncated_bytes += size
            else:
                keep.append((first_lsn, path))
        self._segments = keep
        return reclaimed

    # -- observability ----------------------------------------------------------------------
    def on_disk_bytes(self) -> int:
        """Total bytes currently held by segment files."""
        total = 0
        for _, path in self._segments:
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- lifecycle -------------------------------------------------------------------------
    def close(self) -> None:
        """Flush and release the append handle (clean shutdown)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def crash(self) -> None:
        """Drop the handle without ceremony (simulated process death).

        The handle is unbuffered, so everything previously ``write``-n is
        already with the kernel; closing loses nothing and releases the fd.
        """
        try:
            self.close()
        except OSError:
            pass
