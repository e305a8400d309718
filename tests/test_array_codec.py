"""The journal's one array codec, and the schema-1 form it still reads.

* ``pack_array`` / ``unpack_array`` round-trip any float64 / bool / int64
  array bit for bit -- ``inf``, ``-0.0``, subnormals, ``nan`` payloads,
  empty and 0-d shapes -- through the JSON frame;
* disk input is outside input: a wrong dtype, a malformed shape, a byte
  count that does not fit, or matrix arrays that disagree on shape raise
  :class:`~repro.errors.WalCorruption`, never a bare numpy error;
* a journal written by the last schema-1 commit (committed under
  ``tests/data/journal_schema1``) recovers to exactly the state its
  history produces on a plain matrix, and a checkpoint then rewrites it
  as schema 2.
"""

import base64
import importlib.util
import json
import os
import shutil

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
    matrix_to_jsonable,
    recover_journal,
    write_snapshot,
)
from repro.durability.wal import (
    frame,
    pack_array,
    pack_flat,
    unpack_array,
)
from repro.errors import MatrixError, WalCorruption

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "journal_schema1")
ARRAYS = ("values", "observed", "censored", "timeouts")

SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
SPECIAL = [np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, np.nan]


def through_json(obj):
    """What a frame does to a packed array: JSON text and back."""
    return json.loads(json.dumps(obj, separators=(",", ":"), sort_keys=True))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        array=st.one_of(
            hnp.arrays(
                np.float64,
                SHAPES,
                elements=st.one_of(
                    st.sampled_from(SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True, width=64),
                ),
            ),
            hnp.arrays(np.bool_, SHAPES),
            hnp.arrays(np.int64, SHAPES),
        )
    )
    def test_bit_exact_for_every_dtype_and_shape(self, array):
        dtype = {"f": "<f8", "b": "|b1", "i": "<i8"}[array.dtype.kind]
        back = unpack_array(through_json(pack_array(array, dtype)), dtype)
        assert back.shape == array.shape and back.dtype == array.dtype
        assert back.tobytes() == array.tobytes()

    def test_non_contiguous_input_is_packed_in_c_order(self):
        array = np.arange(12.0).reshape(3, 4).T
        back = unpack_array(pack_array(array, "<f8"), "<f8")
        assert np.array_equal(back, array)

    def test_every_older_form_still_decodes(self):
        floats = [1.5, float("inf"), -0.0]
        want = np.asarray(floats)
        for form in (floats, pack_flat(floats, "<f8"), pack_array(want, "<f8")):
            assert unpack_array(through_json(form), "<f8").tobytes() == want.tobytes()
        assert unpack_array(pack_flat([3, -1], "<i8"), "<i8").tolist() == [3, -1]
        nested = unpack_array([[True, False], [False, False]], "|b1")
        assert nested.dtype == np.bool_ and nested.shape == (2, 2)

    def test_matrix_payload_round_trip_with_an_empty_backlog(self, tmp_path):
        matrix = WorkloadMatrix(4, 3)
        matrix.observe_batch([0, 1, 2], [0, 1, 2], [-0.0, 5e-324, 1e308])
        matrix.observe_censored(3, 0, 2.5)
        packed = matrix_to_jsonable(matrix.to_dict())
        assert matrix_to_jsonable(packed) == packed  # already converted: unchanged
        write_snapshot(str(tmp_path), {"matrix": packed, "backlog": []}, 7)
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
        restored = matrix_from_jsonable(through_json(matrix_to_jsonable(empty)))
        assert all(restored[key].shape == (0, 4) for key in ARRAYS)


def packed_matrix():
    return matrix_to_jsonable(WorkloadMatrix(3, 2).to_dict())


def corruptions():
    good = pack_array(np.zeros((3, 2)), "<f8")
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


class TestHostileInput:
    @pytest.mark.parametrize("name,packed", list(corruptions()))
    def test_undecodable_arrays_are_typed(self, name, packed):
        with pytest.raises(WalCorruption):
            unpack_array(packed, "<f8")

    def test_matrix_arrays_must_be_two_d_and_agree(self):
        # The codec rejects what does not decode, from_dict what decodes to
        # arrays that disagree: one check each, both typed.
        def restore(payload):
            return WorkloadMatrix.from_dict(matrix_from_jsonable(payload))

        restore(packed_matrix())  # the good one decodes
        for key, replacement in (
            ("observed", pack_array(np.zeros((3, 3), dtype=bool), "|b1")),
            ("timeouts", pack_array(np.zeros(6), "<f8")),
            ("censored", pack_array(np.zeros((3, 2)), "<f8")),  # floats as flags
            ("values", [[1.0, 2.0]]),
        ):
            with pytest.raises((WalCorruption, MatrixError)):
                restore({**packed_matrix(), key: replacement})
        lacking = packed_matrix()
        del lacking["censored"]
        with pytest.raises((WalCorruption, MatrixError)):
            restore(lacking)

    def test_a_bad_snapshot_array_fails_recovery_typed(self, tmp_path):
        state = packed_matrix()
        state["values"]["shape"] = [2, 2]
        write_snapshot(str(tmp_path), {"matrix": state, "backlog": []}, 0)
        with pytest.raises(WalCorruption):
            recover_journal(str(tmp_path))

    def test_a_bad_import_or_observe_record_fails_recovery_typed(self, tmp_path):
        for index, (kind, data) in enumerate(
            [
                ("import", {**packed_matrix(), "observed": {"dtype": "|b1"}}),
                (
                    "observe",
                    {"q": "AAAA", "h": pack_flat([0], "<i8"), "v": pack_flat([1.0], "<f8")},
                ),
            ]
        ):
            home = tmp_path / str(index)
            home.mkdir()
            records = encode_record(1, "import", packed_matrix())
            records += encode_record(2, kind, data)
            (home / "wal-00000000000000000001.log").write_bytes(records)
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


# -- the committed schema-1 journal ---------------------------------------------------


def fixture_history():
    spec = importlib.util.spec_from_file_location(
        "make_fixture", os.path.join(FIXTURE, "make_fixture.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.history


class TestSchemaOneStillRecovers:
    @pytest.mark.parametrize(
        "name,snapshot_lsn,replayed", [("checkpointed", 4, 3), ("wal_only", 0, 7)]
    )
    def test_parent_commit_journal_recovers_bit_exact(
        self, tmp_path, name, snapshot_lsn, replayed
    ):
        home = str(tmp_path / name)
        shutil.copytree(os.path.join(FIXTURE, name), home)
        expected = WorkloadMatrix(5, 3)
        fixture_history()(expected)

        journal, state = recover_journal(home)
        assert state.snapshot_lsn == snapshot_lsn
        assert state.replayed_records == replayed
        assert state.backlog.tolist() == [4, 2]
        got, want = state.matrix.to_dict(), expected.to_dict()
        for key in ARRAYS:
            assert got[key].tobytes() == want[key].tobytes(), key
        assert got["query_names"] == want["query_names"]
        # -0.0, the smallest subnormal and 0.1 + 0.2 came back as themselves.
        assert np.signbit(got["values"][2, 1]) and got["values"][2, 1] == 0.0
        assert got["values"][1, 0] == 5e-324
        assert got["values"][3, 0] == 0.1 + 0.2

        # Writers emit only the new form: the next checkpoint is schema 2.
        state.matrix.journal = journal
        journal.checkpoint(matrix_to_jsonable(state.matrix.to_dict()))
        journal.close()
        with open(os.path.join(home, "snapshot.bin"), "rb") as handle:
            body = json.loads(handle.read()[8:])
        assert body["schema"] == 2
        assert body["state"]["matrix"]["values"]["dtype"] == "<f8"
        _, again = recover_journal(home)
        for key in ARRAYS:
            assert again.matrix.to_dict()[key].tobytes() == want[key].tobytes(), key

    def test_the_fixture_really_is_list_form(self):
        with open(os.path.join(FIXTURE, "checkpointed", "snapshot.bin"), "rb") as handle:
            body = json.loads(handle.read()[8:])
        assert body["schema"] == 1
        assert isinstance(body["state"]["matrix"]["values"], list)
        with open(
            os.path.join(FIXTURE, "wal_only", "wal-00000000000000000001.log"), "rb"
        ) as handle:
            first = handle.read()
        length = int.from_bytes(first[:4], "little")
        record = json.loads(first[8 : 8 + length])
        assert record["kind"] == "import" and isinstance(record["data"]["values"], list)
