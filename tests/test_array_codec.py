"""The journal's raw frames, and what its readers refuse.

* the arrays frame (``import`` records, the snapshot body) and the cell
  layout (``observe`` / ``censor``) round-trip every float64 / bool / int64
  array bit for bit -- ``inf``, ``-0.0``, subnormals, ``nan`` payloads,
  empty and 0-d shapes;
* the bytes one fixed journaled history writes are pinned by sha256
  (``WRITER_DIGESTS``), and recover to the matrix that history left;
* disk input is outside input: a CRC-valid frame with an unknown marker or
  kind code, a count or header that disagrees with the bytes, an array of
  another dtype than its field's, a record in another form than its kind's
  (the JSON and base64 forms older journals wrote included), a JSON record
  whose data is not what its writer gives it, or a snapshot not in raw
  array frames raises :class:`~repro.errors.WalCorruption` -- never a bare
  Python or numpy error, never after applying part of the journal, and
  without changing a byte on disk.
"""

import base64
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import (
    ShardJournal,
    encode_record,
    load_snapshot,
    recover_journal,
    write_snapshot,
)
from repro.durability.wal import frame, unframe
from repro.errors import WalCorruption

ARRAYS = ("values", "observed", "censored", "timeouts")
SEGMENT = "wal-00000000000000000001.log"
SNAPSHOT = "snapshot.bin"

SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
SPECIAL = [np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, np.nan]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, width=64)
)


def b64(values, dtype):
    """How older journals wrote a 1-D array: bare base64."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def b64_array(values, dtype):
    """How older journals wrote an n-d array: dtype, shape, base64."""
    values = np.asarray(values)
    return {"dtype": dtype, "shape": list(values.shape), "data": b64(values, dtype)}


def seal(payload):
    """A payload behind the length + CRC header, written independently of
    the module under test."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def cells(lsn, code, count, q, h, v):
    """A cell record spelled out byte by byte."""
    return seal(
        b"\x01" + struct.pack("<QBI", lsn, code, count)
        + np.asarray(q, "<i8").tobytes() + np.asarray(h, "<i8").tobytes()
        + np.asarray(v, "<f8").tobytes()
    )


def arrays_frame(header, raw):
    """An arrays frame with a hand-written header."""
    text = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return seal(b"\x02" + struct.pack("<I", len(text)) + text + raw)


def decode(framed):
    obj, arrays, end = unframe(framed, 0, "test")
    assert end == len(framed)
    return obj, arrays


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        array=st.one_of(
            hnp.arrays(np.float64, SHAPES, elements=FLOATS), hnp.arrays(np.bool_, SHAPES)
        )
    )
    def test_bit_exact_for_every_dtype_and_shape(self, array):
        field = {"f": "values", "b": "observed"}[array.dtype.kind]
        obj, arrays = decode(frame({"lsn": 3}, {field: array}))
        back = arrays[field]
        assert obj == {"lsn": 3}
        assert back.shape == array.shape and back.dtype == array.dtype
        assert back.tobytes() == array.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["observe", "censor"]),
        ids=hnp.arrays(np.int64, st.integers(0, 12), elements=st.integers(-(2**63), 2**63 - 1)),
        data=st.data(),
    )
    def test_cell_records_are_bit_exact(self, kind, ids, data):
        values = data.draw(hnp.arrays(np.float64, ids.size, elements=FLOATS))
        key = {"observe": "v", "censor": "lb"}[kind]
        framed = encode_record(2**40, kind, {"q": ids, "h": ids[::-1], key: values})
        assert len(framed) == 8 + 14 + 24 * ids.size
        obj, arrays = decode(framed)
        assert (obj["lsn"], obj["kind"], arrays) == (2**40, kind, {})
        assert obj["data"]["q"].tobytes() == ids.tobytes()
        assert obj["data"]["h"].tobytes() == ids[::-1].tobytes()
        assert obj["data"][key].tobytes() == values.tobytes()

    def test_non_contiguous_input_is_packed_in_c_order(self):
        array = np.arange(12.0).reshape(3, 4).T
        _, arrays = decode(frame({}, {"values": array}))
        assert np.array_equal(arrays["values"], array)

    def test_matrix_payload_round_trip_with_an_empty_backlog(self, tmp_path):
        matrix = WorkloadMatrix(4, 3)
        matrix.observe_batch([0, 1, 2], [0, 1, 2], [-0.0, 5e-324, 1e308])
        matrix.observe_censored(3, 0, 2.5)
        write_snapshot(str(tmp_path), {"matrix": matrix.to_dict(), "backlog": []}, 7)
        state, lsn = load_snapshot(str(tmp_path))
        assert lsn == 7 and state["backlog"] == []
        restored = state["matrix"]
        for key, want in matrix.to_dict().items():
            if key in ARRAYS:
                assert restored[key].dtype == want.dtype
                assert restored[key].tobytes() == want.tobytes()
            else:
                assert restored[key] == want

    def test_an_empty_row_payload_packs_and_restores(self):
        empty = WorkloadMatrix(3, 4).export_rows([])
        obj, arrays = decode(encode_record(5, "import", empty))
        assert set(arrays) == set(ARRAYS)
        assert all(arrays[key].shape == (0, 4) for key in ARRAYS)
        assert obj["data"]["query_names"] == []


# -- the bytes writers emit ----------------------------------------------------------

#: sha256 of every file ``write_pinned_history`` leaves: the first segment as
#: the checkpoint finds it, then the snapshot and the segment after it.
#: Re-record them only with a change that means to move the bytes on disk
#: (``docs/testing.md``, "Pinned journal bytes").
WRITER_DIGESTS = {
    "wal-00000000000000000001.log": (
        "59028a325ea8f891f3584a20c040dce2d1a48c8882280ab9522f5dfe3836bff0"
    ),
    SNAPSHOT: "29b1a648ab50e2ca1ce3b92476a6efca65ec9287151f7b1864bd887d14c45e9c",
    "wal-00000000000000000008.log": (
        "b6339db1979f87059b1c98ae2f3925c0d1b01f5cdde9c28682a803eaba3f7cd5"
    ),
}


def write_pinned_history(home):
    """Journal one fixed history into ``home``: an import holding ``-0.0``,
    ``5e-324`` and ``0.1 + 0.2``, cell batches, every JSON record kind but
    ``retire``, a checkpoint, then more cells.  Returns the matrix it leaves
    and the sha256 of each file, read just before the checkpoint and at the
    end."""
    digests = {}

    def digest():
        for name in sorted(os.listdir(home)):
            with open(os.path.join(home, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()

    journal = ShardJournal(home)
    matrix = WorkloadMatrix(4, 3)
    matrix.observe_batch([0, 1, 2], [0, 1, 2], [-0.0, 5e-324, 0.1 + 0.2])
    matrix.observe_censored(3, 0, 2.5)
    journal.log_import(matrix.to_dict())
    matrix.journal = journal
    matrix.observe_batch([0, 3], [1, 2], [1.25, 7.0])
    matrix.observe_censored_batch([1, 2], [0, 1], [3.5, 4.0])
    matrix.invalidate([3])
    matrix.add_query("late")
    matrix.remove_queries([3])
    journal.log_adapt_backlog([0, 3])
    digest()
    journal.checkpoint(matrix.to_dict())
    matrix.observe_batch([0], [2], [0.5])
    matrix.observe_censored(3, 1, 9.0)
    journal.close()
    digest()
    return matrix, digests


class TestWriterPin:
    def test_one_history_writes_the_pinned_bytes(self, tmp_path):
        matrix, digests = write_pinned_history(str(tmp_path))
        assert digests == WRITER_DIGESTS
        _, state = recover_journal(str(tmp_path))
        assert (state.snapshot_lsn, state.replayed_records) == (7, 2)
        assert state.backlog.tolist() == [0, 3]
        got, want = state.matrix.to_dict(), matrix.to_dict()
        for key in ARRAYS:
            assert got[key].tobytes() == want[key].tobytes(), key
        assert got["query_names"] == want["query_names"]
        values = got["values"]
        assert np.signbit(values[0, 0]) and values[0, 0] == 0.0
        assert values[1, 1] == 5e-324 and values[2, 2] == 0.1 + 0.2 and values[0, 2] == 0.5
        assert got["query_names"][3] == "late" and got["timeouts"][3, 1] == 9.0


# -- hostile input -------------------------------------------------------------------


def b64_matrix(payload):
    """A matrix payload's arrays as older journals wrote them, in the JSON."""
    return {
        key: b64_array(value, {"f": "<f8", "b": "|b1"}[value.dtype.kind])
        if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
    }


def listed_matrix(payload):
    """A matrix payload's arrays as nested lists, in the JSON."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
    }


def record(lsn, kind, data):
    """A JSON record, spelled out."""
    text = json.dumps({"data": data, "kind": kind, "lsn": lsn}, sort_keys=True)
    return seal(text.encode())


def corruptions():
    """Journal directories -- ``{file name: bytes}`` -- recovery must refuse:
    WAL segments of a good bootstrap ``import`` and one CRC-valid hostile
    frame, then snapshots."""
    for name, segment in hostile_segments():
        yield pytest.param(name, {SEGMENT: segment}, id=name)
    for name, snapshot in hostile_snapshots():
        yield pytest.param(name, {SNAPSHOT: snapshot}, id=name)


def matrix_header(lsn=2, kind="import", **swap):
    """An arrays-frame header of a 3x2 ``import`` record; ``swap`` changes a
    field's dtype."""
    layout = {"values": "<f8", "observed": "|b1", "censored": "|b1", "timeouts": "<f8"}
    layout.update(swap)
    return {
        "arrays": [[field, dtype, [3, 2]] for field, dtype in layout.items()],
        "data": {"query_names": ["a", "b", "c"]}, "kind": kind, "lsn": lsn,
    }


SIX = np.zeros(6).tobytes()
FLAGS = np.zeros(6, dtype=bool).tobytes()


def hostile_segments():
    payload = WorkloadMatrix(3, 2).to_dict()
    boot = encode_record(1, "import", payload)

    yield "frame: unknown marker", boot + seal(b"\x07" + bytes(13))
    yield "frame: empty payload", boot + seal(b"")
    yield "frame: unknown kind code", boot + cells(2, 2, 1, [0], [0], [1.0])
    yield "frame: count above the bytes", boot + cells(2, 0, 2, [0], [0], [1.0])
    yield "frame: count below the bytes", boot + cells(2, 0, 0, [0], [0], [1.0])
    yield "frame: cell layout cut short", boot + seal(b"\x01" + bytes(5))
    yield "frame: array runs past the frame", boot + arrays_frame(
        matrix_header(), SIX + FLAGS + FLAGS + SIX[:-1]
    )
    yield "frame: bytes after the last array", boot + arrays_frame(
        matrix_header(), SIX + FLAGS + FLAGS + SIX + b"\x00"
    )
    yield "frame: array header runs past the frame", boot + seal(
        b"\x02" + struct.pack("<I", 99) + b"{}"
    )
    yield "frame: header names no arrays", boot + arrays_frame({"kind": "import"}, b"")
    yield "frame: dtype other than the field's", boot + arrays_frame(
        matrix_header(values="|b1"), bytes(6) + FLAGS + FLAGS + SIX
    )
    yield "frame: field outside the matrix", boot + arrays_frame(
        {**matrix_header(), "arrays": [["q", "<i8", [1]]]}, bytes(8)
    )
    yield "frame: a field twice", boot + arrays_frame(
        {**matrix_header(), "arrays": [["values", "<f8", [1]]] * 2}, bytes(16)
    )
    yield "frame: NaN latency", boot + cells(2, 0, 2, [0, 1], [0, 1], [1.0, np.nan])
    yield "frame: NaN overwritten later in the run", boot + cells(
        2, 0, 1, [0], [0], [np.nan]
    ) + cells(3, 0, 1, [0], [0], [1.0])
    yield "frame: row id 2**40", boot + cells(2, 0, 1, [2**40], [0], [1.0])
    yield "frame: zero bound", boot + cells(2, 1, 1, [0], [0], [0.0])
    yield "frame: LSN true", arrays_frame(matrix_header(lsn=True), SIX + FLAGS + FLAGS + SIX)

    # The forms older journals wrote, which no writer emits any more.
    yield "retired form: observe as JSON lists", boot + record(
        2, "observe", {"q": [0], "h": [0], "v": [1.0]}
    )
    yield "retired form: observe as base64", boot + record(
        2, "observe", {"q": b64([0], "<i8"), "h": b64([0], "<i8"), "v": b64([1.0], "<f8")}
    )
    yield "retired form: scalar censor", boot + record(
        2, "censor", {"q": 0, "h": 0, "lb": 2.0}
    )
    yield "retired form: import as base64", record(1, "import", b64_matrix(payload))
    yield "retired form: import as JSON lists", record(1, "import", listed_matrix(payload))
    yield "retired kind: measured", boot + record(
        2, "measured", {"q": b64([0], "<i8"), "h": b64([0], "<i8"), "m": b64([1.0], "<f8")}
    )

    # A kind in another frame form than its writer's.
    yield "form: an array in the import's JSON", boot + arrays_frame(
        {
            **matrix_header(),
            "arrays": matrix_header()["arrays"][:3],
            "data": {"query_names": ["a", "b", "c"], "timeouts": [[0.0] * 2] * 3},
        },
        SIX + FLAGS + FLAGS,
    )
    yield "form: invalidate in an arrays frame", boot + arrays_frame(
        {"arrays": [], "data": {"rows": [0]}, "kind": "invalidate", "lsn": 2}, b""
    )

    # JSON data that is not what its kind's writer gives it.
    for kind, data in (
        ("remove", {}),
        ("remove", {"rows": 5}),
        ("remove", {"rows": [0], "also": 1}),
        ("invalidate", {"rows": 5}),
        ("adapt", {"rows": ["a"]}),
        ("adapt", {"rows": 5}),
        ("adapt", {"rows": [1.5]}),
        ("adapt", {"rows": [-4]}),
        ("adapt", {"rows": [True]}),
        ("add_query", {"name": 7}),
    ):
        yield f"data: {kind} {json.dumps(data)}", boot + record(2, kind, data)
    yield "data: import query_names 5", arrays_frame(
        {**matrix_header(lsn=1), "data": {"query_names": 5}}, SIX + FLAGS + FLAGS + SIX
    )


def hostile_snapshots():
    payload = WorkloadMatrix(3, 2).to_dict()
    names = {"hint_names": payload["hint_names"], "query_names": payload["query_names"]}

    def envelope(matrix, backlog=(), schema=2):
        return {"lsn": 0, "schema": schema, "state": {"backlog": backlog, "matrix": matrix}}

    def raw(backlog):
        return arrays_frame(
            {"arrays": matrix_header()["arrays"], **envelope(names, backlog)},
            SIX + FLAGS + FLAGS + SIX,
        )

    yield "snapshot: schema 1, arrays as lists", seal(
        json.dumps(envelope(listed_matrix(payload), schema=1)).encode()
    )
    yield "snapshot: schema 2, arrays as base64 in the JSON", seal(
        json.dumps(envelope(b64_matrix(payload))).encode()
    )
    yield "snapshot: an array in the JSON", arrays_frame(
        {
            "arrays": matrix_header()["arrays"][:3],
            **envelope({**names, "timeouts": [[0.0] * 2] * 3}),
        },
        SIX + FLAGS + FLAGS,
    )
    for backlog in (["a"], 5, [1.5], [-4]):
        yield f"snapshot: backlog {json.dumps(backlog)}", raw(backlog)
    yield "snapshot: LSN true", arrays_frame(
        {"arrays": matrix_header()["arrays"], **envelope(names), "lsn": True},
        SIX + FLAGS + FLAGS + SIX,
    )


class TestHostileInput:
    @pytest.mark.parametrize("name,files", list(corruptions()))
    def test_undecodable_arrays_are_typed(self, name, files, tmp_path):
        for file_name, blob in files.items():
            (tmp_path / file_name).write_bytes(blob)
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))
        # Refused whole: nothing repaired away, nothing created.
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files

    def test_a_kind_that_is_no_name_is_typed(self, tmp_path):
        # Kinds are looked up by name, and a JSON list does not hash.
        for kind in (["import"], {"import": 1}, 1):
            (tmp_path / SEGMENT).write_bytes(record(1, kind, {}))
            with pytest.raises(WalCorruption):
                recover_journal(str(tmp_path))

    def test_the_hostile_snapshots_frame_a_good_one(self, tmp_path):
        # The snapshot rows change one thing each of a snapshot that loads.
        blob = arrays_frame(
            {"arrays": matrix_header()["arrays"], "lsn": 0, "schema": 2, "state": {
                "backlog": [4, 0], "matrix": {"query_names": ["a", "b", "c"]},
            }},
            SIX + FLAGS + FLAGS + SIX,
        )
        (tmp_path / SNAPSHOT).write_bytes(blob)
        _, state = recover_journal(str(tmp_path))
        assert state.matrix.shape == (3, 2) and state.backlog.tolist() == [4, 0]

    def test_matrix_arrays_must_be_two_d_and_agree(self, tmp_path):
        # The frame refuses what does not decode, from_dict what decodes to
        # arrays that disagree: one check each, both typed.
        good = WorkloadMatrix(3, 2).to_dict()
        for index, (key, replacement) in enumerate(
            [
                ("observed", np.zeros((3, 3), dtype=bool)),
                ("timeouts", np.zeros(6)),
                ("values", np.ones((1, 2))),
            ]
        ):
            home = tmp_path / str(index)
            home.mkdir()
            (home / SEGMENT).write_bytes(encode_record(1, "import", {**good, key: replacement}))
            with pytest.raises(WalCorruption):
                recover_journal(str(home))

    def test_a_bad_snapshot_array_fails_recovery_typed(self, tmp_path):
        state = WorkloadMatrix(3, 2).to_dict()
        state["values"] = np.zeros((2, 2))  # decodes, but not the others' shape
        write_snapshot(str(tmp_path), {"matrix": state, "backlog": []}, 0)
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))

    def test_unknown_snapshot_schema_is_rejected(self, tmp_path):
        write_snapshot(str(tmp_path), {"matrix": None, "backlog": []}, 0)
        path = tmp_path / SNAPSHOT
        body = json.loads(path.read_bytes()[8:])
        assert body["schema"] == 2
        for schema in (1, 3, None, "2"):
            body["schema"] = schema
            path.write_bytes(frame(body))
            with pytest.raises(WalCorruption):
                load_snapshot(str(tmp_path))
