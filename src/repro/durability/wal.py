"""Append-only per-shard write-ahead log.

Each record is ``length: u32 | crc32: u32 | payload`` (little-endian), and
the payload's first byte names its form:

* ``0x01`` **cells** (``observe``, ``censor``), a fixed layout with no JSON:
  ``lsn: u64 | kind: u8 | count: u32`` then ``count`` ``<i8`` query ids,
  ``count`` ``<i8`` hint ids and ``count`` ``<f8`` values (kind 0 latencies,
  kind 1 lower bounds);
* ``0x02`` **arrays** (``import``, and the snapshot body):
  ``header length: u32 | header | raw bytes``.  The header is the record (or
  snapshot envelope) as sorted-key JSON without its arrays, plus
  ``"arrays": [[field, dtype, shape], ...]`` naming them in the order their
  bytes follow; each field may carry one dtype (:data:`ARRAY_FIELDS`);
* ``{`` **JSON**, ``{"data": {...}, "kind": k, "lsn": n}``: the records
  without arrays (``invalidate``, ``add_query``, ``remove``, ``retire``,
  ``adapt``).

Each kind is read only in its one form, holding what its writer gives it
(:data:`RECORD_KINDS`); anything else is :class:`~repro.errors.WalCorruption`.

Raw bytes round-trip IEEE-754 doubles exactly: that is what makes
*byte-identical* replay possible.

LSNs are assigned by the log, start at 1, and are strictly contiguous
across the whole journal.  Segment files are named ``wal-<first_lsn>.log``
so a checkpoint drops history by unlinking whole segments
(:meth:`WriteAheadLog.truncate_through`) instead of rewriting files.

Torn-tail rule (the crash contract): a record whose framing runs past
end-of-file is a **torn tail**, the normal leftover of a crash mid-append --
discarded on open (the file is truncated back to the last complete record),
not an error.  A complete record whose CRC or payload fails, or an LSN that
is not exactly ``previous + 1``, raises :class:`~repro.errors.WalCorruption`.
Appends only ever grow a segment, so truncating a healthy log at any byte
offset lands on a valid prefix state (a hypothesis test holds this).
"""

from __future__ import annotations

import json
import math
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
_CELLS = struct.Struct("<BQBI")  # marker, lsn, kind code, count
_ARRAYS = struct.Struct("<BI")  # marker, header length
CELLS, ARRAYS, JSON = 0x01, 0x02, ord("{")
_SEGMENT_RE = re.compile(r"^wal-(\d{20})\.log$")

#: The cell kinds by code, and the field each keeps its values in.
CELL_KINDS = ("observe", "censor")
CELL_VALUES = {"observe": "v", "censor": "lb"}

#: The arrays of a matrix payload and the one dtype each may carry on disk.
ARRAY_FIELDS = {"values": "<f8", "observed": "|b1", "censored": "|b1", "timeouts": "<f8"}


def is_rows(value) -> bool:
    """Row ids as writers journal them: a list of non-negative ints, no
    bools.  Rows past the matrix stay legal: an adaptation backlog may name
    rows a migration took away, which the controller then drops."""
    return isinstance(value, list) and all(type(r) is int and r >= 0 for r in value)


def is_matrix(data: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bool:
    """A matrix payload (``import`` record, snapshot body) as writers emit
    it: the four arrays raw, the names in lists."""
    return (
        arrays.keys() == ARRAY_FIELDS.keys()
        and isinstance(data.get("query_names"), list)
        and isinstance(data.get("hint_names", []), list)
    )


def _fields(**tests):
    """A JSON record's data test: exactly these fields, each passing its test."""
    return lambda data, arrays: data.keys() == tests.keys() and all(
        ok(data[name]) for name, ok in tests.items()
    )


#: Records the journal understands: the one frame form each is written in,
#: and the test its decoded payload passes (a cell record's fixed layout is
#: its own).  Recovery refuses any other kind, form or payload.
RECORD_KINDS = {
    "observe": (CELLS, None),  # completed cells: q, h, v (latencies)
    "censor": (CELLS, None),  # timed-out cells: q, h, lb (lower bounds)
    "invalidate": (JSON, _fields(rows=lambda rows: rows is None or is_rows(rows))),
    "add_query": (JSON, _fields(name=lambda name: name is None or isinstance(name, str))),
    "import": (ARRAYS, is_matrix),  # row migration in
    "remove": (JSON, _fields(rows=is_rows)),  # row migration out
    "retire": (JSON, _fields()),  # the shard gave away its last row
    "adapt": (JSON, _fields(rows=is_rows)),  # adaptation-response backlog
}


@dataclass(frozen=True)
class WalRecord:
    """One decoded journal record."""

    lsn: int
    kind: str
    data: Dict[str, Any]


def _segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:020d}.log"


def split_arrays(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """``payload`` as (everything else, its numpy arrays)."""
    arrays = {key: value for key, value in payload.items() if isinstance(value, np.ndarray)}
    return {key: value for key, value in payload.items() if key not in arrays}, arrays


def _seal(body: bytes) -> bytes:
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _json(obj: Dict[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def frame(obj: Dict[str, Any], arrays: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    """``obj`` behind the length+CRC header (WAL records and the snapshot
    file share this frame): as JSON, or, with ``arrays`` (matrix fields), as
    a JSON header naming them followed by their raw bytes."""
    if not arrays:
        return _seal(_json(obj))
    raws = [np.asarray(v, dtype=ARRAY_FIELDS[f], order="C") for f, v in arrays.items()]
    layout = [[f, ARRAY_FIELDS[f], list(v.shape)] for f, v in zip(arrays, raws)]
    header = _json({**obj, "arrays": layout})
    return _seal(b"".join([_ARRAYS.pack(ARRAYS, len(header)), header, *raws]))


def encode_record(lsn: int, kind: str, data: Dict[str, Any]) -> bytes:
    """Frame one record: ``observe`` / ``censor`` in the fixed cell layout,
    a payload holding numpy arrays with them raw, anything else as JSON.
    (Exposed for tests that craft WAL bytes.)"""
    if kind in CELL_KINDS:
        q, h, values = (
            np.ascontiguousarray(data[key], dtype=dtype)
            for key, dtype in (("q", "<i8"), ("h", "<i8"), (CELL_VALUES[kind], "<f8"))
        )
        if not q.ndim == 1 or not q.shape == h.shape == values.shape:
            raise DurabilityError(f"{kind} record needs three 1-D arrays of one length")
        return _seal(
            b"".join((_CELLS.pack(CELLS, lsn, CELL_KINDS.index(kind), q.size), q, h, values))
        )
    rest, arrays = split_arrays(data)
    return frame({"data": rest, "kind": kind, "lsn": int(lsn)}, arrays)


def _decode_cells(view: memoryview) -> Dict[str, Any]:
    _, lsn, code, count = _CELLS.unpack_from(view)
    if code >= len(CELL_KINDS):
        raise ValueError(f"unknown cell kind code {code}")
    if len(view) != _CELLS.size + 24 * count:
        raise ValueError(f"count {count} disagrees with {len(view)} payload bytes")
    kind = CELL_KINDS[code]
    q, h, values = np.frombuffer(view, "<i8", 3 * count, _CELLS.size).reshape(3, count)
    data = {"q": q, "h": h, CELL_VALUES[kind]: values.view("<f8")}
    return {"data": data, "kind": kind, "lsn": lsn}


def _decode_arrays(view: memoryview) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    _, header_size = _ARRAYS.unpack_from(view)
    offset = _ARRAYS.size + header_size
    obj = json.loads(bytes(view[_ARRAYS.size:offset]))
    layout = obj.pop("arrays", None) if isinstance(obj, dict) else None
    if not isinstance(layout, list):
        raise ValueError("array header names no arrays")
    arrays: Dict[str, np.ndarray] = {}
    for entry in layout:
        field, dtype, shape = entry if isinstance(entry, list) and len(entry) == 3 else (0,) * 3
        if (
            ARRAY_FIELDS.get(field) != dtype
            or field in arrays
            or not isinstance(shape, list)
            or not all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"bad array entry {entry!r}")
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(view):
            raise ValueError(f"array {field!r} runs past the frame")
        arrays[field] = np.frombuffer(view, dtype, count, offset).reshape(shape)
        offset = end
    if offset != len(view):
        raise ValueError(f"arrays end at {offset} of {len(view)} payload bytes")
    return obj, arrays


def unframe(
    data: bytes, offset: int, where: str
) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray], int]]:
    """Decode the frame at ``offset``: ``(object, raw arrays, end offset)``
    (a cell record's arrays are in its ``data``).  ``None`` when the frame
    runs past the end of ``data`` (torn); a complete frame whose CRC or
    payload fails raises :class:`~repro.errors.WalCorruption` naming ``where``.
    """
    start = offset + _HEADER.size
    if start > len(data):
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        return None
    view = memoryview(data)[start:end]
    if zlib.crc32(view) != crc:
        raise WalCorruption(f"CRC mismatch in {where} at byte {offset}")
    arrays: Dict[str, np.ndarray] = {}
    try:
        marker = view[0] if length else None
        if marker == CELLS:
            obj = _decode_cells(view)
        elif marker == ARRAYS:
            obj, arrays = _decode_arrays(view)
        elif marker == JSON:
            obj = json.loads(bytes(view))
        else:
            raise ValueError(f"unknown payload marker {marker!r}")
    except (TypeError, ValueError, struct.error) as exc:
        raise WalCorruption(f"unreadable frame in {where} at byte {offset}: {exc}") from exc
    if not isinstance(obj, dict):
        raise WalCorruption(f"malformed frame in {where} at byte {offset}")
    return obj, arrays, end


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
        obj, arrays, end = decoded
        lsn, kind, payload = obj.get("lsn"), obj.get("kind"), obj.get("data")
        if type(lsn) is not int or not isinstance(payload, dict):  # (a bool is no LSN)
            raise WalCorruption(f"malformed record in {name} at byte {offset}")
        where = f"record {lsn} in {name} at byte {offset}"
        if not isinstance(kind, str) or kind not in RECORD_KINDS:
            raise WalCorruption(f"{where} has unknown kind {kind!r}")
        form, holds = RECORD_KINDS[kind]
        if data[offset + _HEADER.size] != form:  # the marker unframe read
            raise WalCorruption(f"{where} is a {kind} record in another frame form")
        if holds is not None and not holds(payload, arrays):
            raise WalCorruption(f"{where} holds other {kind} data than its writer gives")
        records.append(WalRecord(lsn, kind, {**payload, **arrays}))
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
        self.discarded_tail_records = 0

    # -- opening / scanning ----------------------------------------------------------
    def open(self) -> List[WalRecord]:
        """Scan every segment, validate, repair torn tails, resume appends.

        Returns all surviving records in LSN order.
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
                os.truncate(path, good_offset)
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
            # No record survived a checkpoint's rotate + truncate: resume at
            # the LSN the last segment's name promises.  Restarting at 1 would
            # put pre-snapshot LSNs in a later-named segment, which the next
            # open refuses and snapshot replay would skip.
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
    def append(self, kind: str, data: Dict[str, Any]) -> Tuple[int, int]:
        """Frame, write (and optionally fsync) one record; returns its LSN
        and its framed size in bytes.

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
        return lsn, len(framed)

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
