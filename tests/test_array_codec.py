"""The journal's raw frames, and the older forms its readers still accept.

* the arrays frame (``import`` records, the snapshot body) and the cell
  layout (``observe`` / ``censor``) round-trip every float64 / bool / int64
  array bit for bit -- ``inf``, ``-0.0``, subnormals, ``nan`` payloads,
  empty and 0-d shapes -- and so does schema 2's base64 form, through JSON;
* disk input is outside input: a CRC-valid frame with an unknown marker or
  kind code, a count or header that disagrees with the bytes, an array of
  another dtype than its field's, or a base64 array that does not fit its
  shape raises :class:`~repro.errors.WalCorruption` -- never a bare numpy
  error, and never after applying part of the journal;
* journals written by the last schema-1 and the last schema-2 commits
  (committed under ``tests/data/journal_schema1`` and ``journal_schema2``)
  recover to exactly the state their history produces on a plain matrix,
  and a checkpoint then rewrites them in the raw form.
"""

import base64
import importlib.util
import json
import os
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import (
    encode_record,
    load_snapshot,
    matrix_from_jsonable,
    recover_journal,
    write_snapshot,
)
from repro.durability.wal import frame, unframe, unpack_array
from repro.errors import MatrixError, WalCorruption

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE = os.path.join(DATA, "journal_schema1")
ARRAYS = ("values", "observed", "censored", "timeouts")
SEGMENT = "wal-00000000000000000001.log"

SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
SPECIAL = [np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, np.nan]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, width=64)
)


def b64_flat(values, dtype):
    """How schema 2 wrote a 1-D ``observe`` array: bare base64."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def b64_array(values, dtype):
    """How schema 2 wrote an n-d array: dtype, shape, base64."""
    values = np.asarray(values)
    return {"dtype": dtype, "shape": list(values.shape), "data": b64_flat(values, dtype)}


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

    @settings(max_examples=200, deadline=None)
    @given(
        array=st.one_of(
            hnp.arrays(np.float64, SHAPES, elements=FLOATS),
            hnp.arrays(np.bool_, SHAPES),
            hnp.arrays(np.int64, SHAPES),
        )
    )
    def test_the_base64_form_is_bit_exact_for_every_dtype_and_shape(self, array):
        dtype = {"f": "<f8", "b": "|b1", "i": "<i8"}[array.dtype.kind]
        back = unpack_array(json.loads(json.dumps(b64_array(array, dtype))), dtype)
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

    def test_every_older_form_still_decodes(self):
        floats = [1.5, float("inf"), -0.0]
        want = np.asarray(floats)
        for form in (floats, b64_flat(floats, "<f8"), b64_array(want, "<f8")):
            through_json = json.loads(json.dumps(form))
            assert unpack_array(through_json, "<f8").tobytes() == want.tobytes()
        assert unpack_array(b64_flat([3, -1], "<i8"), "<i8").tolist() == [3, -1]
        nested = unpack_array([[True, False], [False, False]], "|b1")
        assert nested.dtype == np.bool_ and nested.shape == (2, 2)

    def test_matrix_payload_round_trip_with_an_empty_backlog(self, tmp_path):
        matrix = WorkloadMatrix(4, 3)
        matrix.observe_batch([0, 1, 2], [0, 1, 2], [-0.0, 5e-324, 1e308])
        matrix.observe_censored(3, 0, 2.5)
        write_snapshot(str(tmp_path), {"matrix": matrix.to_dict(), "backlog": []}, 7)
        state, lsn = load_snapshot(str(tmp_path))
        assert lsn == 7 and state["backlog"] == []
        restored = matrix_from_jsonable(state["matrix"])
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
        restored = matrix_from_jsonable({**obj["data"], **arrays})
        assert all(restored[key].shape == (0, 4) for key in ARRAYS)
        assert restored["query_names"] == []


def packed_matrix():
    """A 3x2 matrix payload as schema 2 wrote it."""
    payload = WorkloadMatrix(3, 2).to_dict()
    return {
        key: b64_array(value, {"f": "<f8", "b": "|b1"}[value.dtype.kind])
        if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
    }


def corruptions():
    """Base64 arrays ``unpack_array`` must refuse, then whole WAL segments --
    a good bootstrap ``import`` and one CRC-valid hostile frame -- that
    recovery must refuse."""
    good = b64_array(np.zeros((3, 2)), "<f8")
    raw = base64.b64decode(good["data"])

    def with_(**changes):
        return {**good, **changes}

    yield "wrong dtype", with_(dtype="<f4")
    yield "dtype outside the set", with_(dtype="O")
    yield "another field's dtype", with_(dtype="|b1")
    yield "shape too large", with_(shape=[4, 2])
    yield "shape too small", with_(shape=[2, 2])
    yield "negative dimension", with_(shape=[-3, -2])
    yield "float dimension", with_(shape=[3.0, 2])
    yield "bool dimension", with_(shape=[True, 48])
    yield "shape not a list", with_(shape="3,2")
    yield "bytes not a multiple of the item", with_(
        data=base64.b64encode(raw[:-3]).decode("ascii")
    )
    yield "data not text", with_(data=17)
    yield "data not base64", with_(data="!!!")
    yield "missing key", {"dtype": "<f8", "shape": [3, 2]}
    yield "ragged list", [[1.0, 2.0], [3.0]]
    yield "list of text", [["a", "b"]]
    for name, segment in hostile_segments():
        yield pytest.param(name, segment, id=name)


def hostile_segments():
    boot = encode_record(1, "import", WorkloadMatrix(3, 2).to_dict())
    six = np.zeros(6).tobytes()
    flags = np.zeros(6, dtype=bool).tobytes()

    def matrix_header(**swap):
        layout = {"values": "<f8", "observed": "|b1", "censored": "|b1", "timeouts": "<f8"}
        layout.update(swap)
        return {
            "arrays": [[field, dtype, [3, 2]] for field, dtype in layout.items()],
            "data": {"query_names": ["a", "b", "c"]}, "kind": "import", "lsn": 2,
        }

    yield "frame: unknown marker", boot + seal(b"\x07" + bytes(13))
    yield "frame: empty payload", boot + seal(b"")
    yield "frame: unknown kind code", boot + cells(2, 2, 1, [0], [0], [1.0])
    yield "frame: count above the bytes", boot + cells(2, 0, 2, [0], [0], [1.0])
    yield "frame: count below the bytes", boot + cells(2, 0, 0, [0], [0], [1.0])
    yield "frame: cell layout cut short", boot + seal(b"\x01" + bytes(5))
    yield "frame: array runs past the frame", boot + arrays_frame(
        matrix_header(), six + flags + flags + six[:-1]
    )
    yield "frame: bytes after the last array", boot + arrays_frame(
        matrix_header(), six + flags + flags + six + b"\x00"
    )
    yield "frame: array header runs past the frame", boot + seal(
        b"\x02" + struct.pack("<I", 99) + b"{}"
    )
    yield "frame: header names no arrays", boot + arrays_frame({"kind": "import"}, b"")
    yield "frame: dtype other than the field's", boot + arrays_frame(
        matrix_header(values="|b1"), bytes(6) + flags + flags + six
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


class TestHostileInput:
    @pytest.mark.parametrize("name,packed", list(corruptions()))
    def test_undecodable_arrays_are_typed(self, name, packed, tmp_path):
        if not isinstance(packed, bytes):
            with pytest.raises(WalCorruption):
                unpack_array(packed, "<f8")
            return
        segment = tmp_path / SEGMENT
        segment.write_bytes(packed)
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))
        assert segment.read_bytes() == packed  # refused whole: nothing repaired away

    def test_matrix_arrays_must_be_two_d_and_agree(self):
        # The codec rejects what does not decode, from_dict what decodes to
        # arrays that disagree: one check each, both typed.
        def restore(payload):
            return WorkloadMatrix.from_dict(matrix_from_jsonable(payload))

        restore(packed_matrix())  # the good one decodes
        for key, replacement in (
            ("observed", b64_array(np.zeros((3, 3), dtype=bool), "|b1")),
            ("timeouts", b64_array(np.zeros(6), "<f8")),
            ("censored", b64_array(np.zeros((3, 2)), "<f8")),  # floats as flags
            ("values", [[1.0, 2.0]]),
        ):
            with pytest.raises((WalCorruption, MatrixError)):
                restore({**packed_matrix(), key: replacement})
        lacking = packed_matrix()
        del lacking["censored"]
        with pytest.raises((WalCorruption, MatrixError)):
            restore(lacking)

    def test_a_bad_snapshot_array_fails_recovery_typed(self, tmp_path):
        state = WorkloadMatrix(3, 2).to_dict()
        state["values"] = np.zeros((2, 2))  # decodes, but not the others' shape
        write_snapshot(str(tmp_path), {"matrix": state, "backlog": []}, 0)
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))

    def test_a_bad_import_or_observe_record_fails_recovery_typed(self, tmp_path):
        for index, (kind, data) in enumerate(
            [
                ("import", {**packed_matrix(), "observed": {"dtype": "|b1"}}),
                (
                    "observe",
                    {"q": "AAAA", "h": b64_flat([0], "<i8"), "v": b64_flat([1.0], "<f8")},
                ),
            ]
        ):
            home = tmp_path / str(index)
            home.mkdir()
            records = encode_record(1, "import", packed_matrix())
            records += frame({"data": data, "kind": kind, "lsn": 2})
            (home / SEGMENT).write_bytes(records)
            with pytest.raises(WalCorruption):
                recover_journal(str(home))

    def test_unknown_snapshot_schema_is_rejected(self, tmp_path):
        write_snapshot(str(tmp_path), {"matrix": None, "backlog": []}, 0)
        path = tmp_path / "snapshot.bin"
        body = json.loads(path.read_bytes()[8:])
        assert body["schema"] == 2
        for schema in (3, None, "2"):
            body["schema"] = schema
            path.write_bytes(frame(body))
            with pytest.raises(WalCorruption):
                load_snapshot(str(tmp_path))


# -- the committed schema-1 and schema-2 journals ------------------------------------


def fixture_history(fixture):
    spec = importlib.util.spec_from_file_location(
        "make_fixture", os.path.join(fixture, "make_fixture.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.history


def recover_fixture(fixture, tmp_path, name, snapshot_lsn, replayed):
    """Recover a committed journal, demand the state its history produces,
    checkpoint it in the raw form and demand the same state again.  Returns
    the recovered ``to_dict()``."""
    home = str(tmp_path / name)
    shutil.copytree(os.path.join(fixture, name), home)
    expected = WorkloadMatrix(5, 3)
    fixture_history(fixture)(expected)

    journal, state = recover_journal(home)
    assert state.snapshot_lsn == snapshot_lsn
    assert state.replayed_records == replayed
    assert state.backlog.tolist() == [4, 2]
    got, want = state.matrix.to_dict(), expected.to_dict()
    for key in ARRAYS:
        assert got[key].tobytes() == want[key].tobytes(), key
    assert got["query_names"] == want["query_names"]

    # Writers emit only the raw form: the next checkpoint is an arrays frame.
    state.matrix.journal = journal
    journal.checkpoint(state.matrix.to_dict())
    journal.close()
    with open(os.path.join(home, "snapshot.bin"), "rb") as handle:
        body, arrays = decode(handle.read())
    assert body["schema"] == 2 and body["state"]["backlog"] == [4, 2]
    assert arrays["values"].dtype == np.float64
    _, again = recover_journal(home)
    for key in ARRAYS:
        assert again.matrix.to_dict()[key].tobytes() == want[key].tobytes(), key
    return got


def first_record(fixture, name):
    with open(os.path.join(fixture, name, SEGMENT), "rb") as handle:
        first = handle.read()
    length = int.from_bytes(first[:4], "little")
    return json.loads(first[8 : 8 + length]), first


class TestSchemaOneStillRecovers:
    @pytest.mark.parametrize(
        "name,snapshot_lsn,replayed", [("checkpointed", 4, 3), ("wal_only", 0, 7)]
    )
    def test_parent_commit_journal_recovers_bit_exact(
        self, tmp_path, name, snapshot_lsn, replayed
    ):
        got = recover_fixture(FIXTURE, tmp_path, name, snapshot_lsn, replayed)
        # -0.0, the smallest subnormal and 0.1 + 0.2 came back as themselves.
        assert np.signbit(got["values"][2, 1]) and got["values"][2, 1] == 0.0
        assert got["values"][1, 0] == 5e-324
        assert got["values"][3, 0] == 0.1 + 0.2

    def test_the_fixture_really_is_list_form(self):
        with open(os.path.join(FIXTURE, "checkpointed", "snapshot.bin"), "rb") as handle:
            body = json.loads(handle.read()[8:])
        assert body["schema"] == 1
        assert isinstance(body["state"]["matrix"]["values"], list)
        record, _ = first_record(FIXTURE, "wal_only")
        assert record["kind"] == "import" and isinstance(record["data"]["values"], list)


FIXTURE_2 = os.path.join(DATA, "journal_schema2")


class TestSchemaTwoStillRecovers:
    @pytest.mark.parametrize(
        "name,snapshot_lsn,replayed", [("checkpointed", 6, 7), ("wal_only", 0, 13)]
    )
    def test_parent_commit_journal_recovers_bit_exact(
        self, tmp_path, name, snapshot_lsn, replayed
    ):
        got = recover_fixture(FIXTURE_2, tmp_path, name, snapshot_lsn, replayed)
        values, timeouts = got["values"], got["timeouts"]
        assert values[1, 0] == 5e-324 and values[2, 0] == values[3, 0] == 0.1 + 0.2
        assert np.signbit(values[4, 0]) and values[4, 0] == 0.0  # the batch's last write
        assert timeouts[3, 1] == 2.25  # the tighter of two scalar censor records
        assert timeouts[5, 1] == 5e-324 and got["censored"][5, 1]

    def test_the_fixture_really_is_base64_form(self):
        with open(os.path.join(FIXTURE_2, "checkpointed", "snapshot.bin"), "rb") as handle:
            body = json.loads(handle.read()[8:])
        assert body["schema"] == 2
        assert isinstance(body["state"]["matrix"]["values"]["data"], str)
        record, blob = first_record(FIXTURE_2, "wal_only")
        assert record["kind"] == "import" and isinstance(record["data"]["values"], dict)
        assert b'"kind":"censor"' in blob and b'"lb":2.25' in blob  # scalar cells
