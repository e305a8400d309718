"""Tests for the partially observed workload matrix."""

import tracemalloc

import numpy as np
import pytest

from repro.core.workload_matrix import WorkloadMatrix, checked_ids
from repro.errors import MatrixError


def test_dimensions_must_be_positive():
    with pytest.raises(MatrixError):
        WorkloadMatrix(0, 5)
    with pytest.raises(MatrixError):
        WorkloadMatrix(5, 0)


def test_names_default_and_validate():
    matrix = WorkloadMatrix(2, 3)
    assert len(matrix.query_names) == 2
    assert len(matrix.hint_names) == 3
    with pytest.raises(MatrixError):
        WorkloadMatrix(2, 3, query_names=["only-one"])


def test_observe_and_value():
    matrix = WorkloadMatrix(3, 4)
    matrix.observe(0, 1, 2.5)
    assert matrix.is_observed(0, 1)
    assert matrix.value(0, 1) == 2.5
    assert not matrix.is_observed(0, 2)
    assert matrix.value(0, 2) == float("inf")


def test_observe_rejects_invalid_latency():
    matrix = WorkloadMatrix(2, 2)
    with pytest.raises(MatrixError):
        matrix.observe(0, 0, float("inf"))
    with pytest.raises(MatrixError):
        matrix.observe(0, 0, -1.0)


def test_index_bounds_checked():
    matrix = WorkloadMatrix(2, 2)
    with pytest.raises(MatrixError):
        matrix.observe(2, 0, 1.0)
    with pytest.raises(MatrixError):
        matrix.value(0, 5)


def test_censored_observation_records_lower_bound():
    matrix = WorkloadMatrix(2, 2)
    matrix.observe_censored(0, 1, 3.0)
    assert matrix.is_censored(0, 1)
    assert not matrix.is_observed(0, 1)
    assert not matrix.unknown_mask()[0, 1]
    assert matrix.value(0, 1) == 3.0
    assert matrix.timeout_matrix[0, 1] == 3.0
    assert matrix.mask[0, 1] == 0.0


def test_censored_keeps_tightest_bound_and_yields_to_observation():
    matrix = WorkloadMatrix(1, 2)
    matrix.observe_censored(0, 0, 2.0)
    matrix.observe_censored(0, 0, 1.0)
    assert matrix.value(0, 0) == 2.0
    matrix.observe(0, 0, 5.0)
    assert matrix.is_observed(0, 0)
    assert matrix.value(0, 0) == 5.0
    # A later censored report cannot downgrade a completed observation.
    matrix.observe_censored(0, 0, 9.0)
    assert matrix.is_observed(0, 0)
    assert matrix.value(0, 0) == 5.0


def test_row_min_ignores_censored_entries():
    matrix = WorkloadMatrix(1, 3)
    matrix.observe(0, 0, 10.0)
    matrix.observe_censored(0, 1, 2.0)
    assert matrix.row_minima()[0] == 10.0
    assert matrix.best_hint(0) == 0


def test_row_min_inf_when_nothing_observed():
    matrix = WorkloadMatrix(2, 2)
    assert matrix.row_minima()[0] == float("inf")
    assert matrix.best_hint(0) is None


def test_workload_latency():
    matrix = WorkloadMatrix(2, 3)
    matrix.observe(0, 0, 5.0)
    matrix.observe(0, 1, 3.0)
    matrix.observe(1, 0, 7.0)
    matrix.observe_censored(1, 2, 4.0)
    assert matrix.workload_latency() == pytest.approx(3.0 + 7.0)


def test_unknown_entries_and_fractions():
    matrix = WorkloadMatrix(2, 2)
    matrix.observe(0, 0, 1.0)
    matrix.observe_censored(1, 1, 1.0)
    rows, cols = np.nonzero(matrix.unknown_mask())
    assert set(zip(rows.tolist(), cols.tolist())) == {(0, 1), (1, 0)}
    assert matrix.unknown_in_row(0) == [1]
    assert matrix.observed_fraction() == pytest.approx(0.25)
    assert matrix.known_cells()[2].tolist() == [1, 1]


def test_add_query_appends_unobserved_row():
    matrix = WorkloadMatrix(2, 3, query_names=["a", "b"])
    index = matrix.add_query("c")
    assert index == 2
    assert matrix.n_queries == 3
    assert matrix.query_names[-1] == "c"
    assert matrix.unknown_in_row(2) == [0, 1, 2]


def test_add_query_refuses_a_name_recovery_would_refuse():
    matrix = WorkloadMatrix(2, 3)
    for name in (7, b"c", ["c"]):
        with pytest.raises(MatrixError):
            matrix.add_query(name)
    assert matrix.n_queries == 2


def test_invalidate_resets_rows():
    matrix = WorkloadMatrix(2, 2)
    matrix.observe(0, 0, 1.0)
    matrix.observe(1, 0, 2.0)
    matrix.invalidate([0])
    assert not matrix.is_observed(0, 0)
    assert matrix.is_observed(1, 0)
    matrix.invalidate()
    assert matrix.unknown_mask().all()


def test_roundtrip_dict():
    matrix = WorkloadMatrix(2, 3, query_names=["a", "b"])
    matrix.observe(0, 0, 1.5)
    matrix.observe_censored(1, 2, 0.5)
    clone = WorkloadMatrix.from_dict(matrix.to_dict())
    assert clone.value(0, 0) == 1.5
    assert clone.is_censored(1, 2)
    assert clone.query_names == ["a", "b"]
    assert np.allclose(clone.mask, matrix.mask)


def test_dimensions_of_a_payload_must_be_positive():
    payload = WorkloadMatrix(2, 3).export_rows([])
    with pytest.raises(MatrixError, match="positive dimensions"):
        WorkloadMatrix.from_dict(payload)


CELL_ARRAYS = ("_values", "_observed", "_censored")


def _ceb_sized_matrix():
    rng = np.random.default_rng(3)
    matrix = WorkloadMatrix(3133, 49)
    rows, cols = np.nonzero(rng.random(matrix.shape) < 0.1)
    matrix.observe_batch(rows, cols, rng.random(rows.size))
    matrix.observe_censored_batch(np.arange(50), np.ones(50, dtype=np.int64), np.ones(50))
    return matrix


@pytest.mark.parametrize("door", ["copy", "from_dict"])
def test_a_clone_allocates_each_cell_array_once(door):
    # ``copy`` used to round-trip through ``to_dict``, and ``from_dict``
    # built blank arrays first: 2.5x and 1.5x the cells at this shape.
    matrix = _ceb_sized_matrix()
    payload = matrix.to_dict()
    cells = sum(getattr(matrix, name).nbytes for name in CELL_ARRAYS)
    tracemalloc.start()
    try:
        clone = matrix.copy() if door == "copy" else WorkloadMatrix.from_dict(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * cells
    for name in CELL_ARRAYS:
        ours = getattr(clone, name)
        assert np.array_equal(ours, getattr(matrix, name)), name
        assert not np.shares_memory(ours, getattr(matrix, name)), name
        assert not np.shares_memory(ours, payload[name[1:]]), name
    assert clone.query_names == matrix.query_names
    assert clone.query_names is not matrix.query_names


def _tampered(edit):
    matrix = WorkloadMatrix(3, 4)
    matrix.observe(0, 0, 1.5)
    matrix.observe(2, 1, 0.25)
    matrix.observe_censored(1, 2, 0.5)
    payload = matrix.to_dict()
    edit(payload)
    return payload


#: Payloads no mutator could have produced; both doors that take a payload
#: from outside (``from_dict`` and ``import_rows``) refuse every one.
HOSTILE_PAYLOADS = pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda p: p.__setitem__("observed", p["observed"][:2]), id="3x4-beside-2x4"),
        pytest.param(lambda p: p["observed"].__setitem__((1, 2), True), id="observed-and-censored"),
        pytest.param(lambda p: p["timeouts"].__setitem__((1, 2), np.nan), id="nan-bound"),
        pytest.param(lambda p: p["timeouts"].__setitem__((1, 2), 0.0), id="zero-bound"),
        pytest.param(lambda p: p["values"].__setitem__((0, 0), np.inf), id="inf-latency"),
        pytest.param(lambda p: p["values"].__setitem__((2, 1), -1.0), id="negative-latency"),
        pytest.param(lambda p: p.__setitem__("values", p["values"].ravel()), id="not-2d"),
        pytest.param(lambda p: p.__setitem__("query_names", ["a", "b"]), id="two-names-three-rows"),
        pytest.param(lambda p: p.pop("censored"), id="missing-array"),
        # The matrix keeps a bound only as a censored cell's value, so
        # neither of these could come back out of ``to_dict``.
        pytest.param(lambda p: p["timeouts"].__setitem__((0, 3), 1.0), id="bound-on-unknown-cell"),
        pytest.param(lambda p: p["timeouts"].__setitem__((0, 0), 1.0), id="bound-on-observed-cell"),
        pytest.param(lambda p: p["timeouts"].__setitem__((0, 3), -0.0), id="negative-zero-timeout"),
        pytest.param(lambda p: p["values"].__setitem__((1, 2), 0.75), id="value-is-not-the-bound"),
    ],
)


@HOSTILE_PAYLOADS
def test_from_dict_rejects_payloads_no_mutator_could_have_produced(edit):
    with pytest.raises(MatrixError):
        WorkloadMatrix.from_dict(_tampered(edit))
    # The untouched payload is fine, and row_minima() works on the result.
    assert WorkloadMatrix.from_dict(_tampered(lambda p: None)).row_minima()[0] == 1.5


def test_an_accepted_payload_round_trips_byte_for_byte():
    """What ``from_dict`` and ``import_rows`` let in, ``to_dict`` and
    ``export_rows`` give back: the derived ``timeouts`` included."""
    payload = _tampered(lambda p: None)
    payload["hint_names"] = ["a", "b", "c", "d"]
    state = WorkloadMatrix.from_dict(payload).to_dict()
    host = WorkloadMatrix(1, 4)
    payload["query_names"] = ["x", "y", "z"]
    moved = host.export_rows(host.import_rows(payload))
    for key in ("values", "observed", "censored", "timeouts"):
        for got in (state[key], moved[key]):
            assert got.dtype == payload[key].dtype and got.tobytes() == payload[key].tobytes()
    assert state["query_names"] == ["q0", "q1", "q2"] and moved["query_names"] == ["x", "y", "z"]


class _ImportJournal:
    """Counts the imports a matrix made durable."""

    def __init__(self):
        self.imports = 0

    def log_import(self, payload):
        self.imports += 1


@HOSTILE_PAYLOADS
def test_import_rows_refuses_what_from_dict_refuses(edit):
    """A cell both observed and censored used to be listed twice by
    ``known_cells()``; a NaN latency made ``row_minima()`` read ``nan``."""
    matrix = WorkloadMatrix(2, 4, query_names=["x", "y"])
    matrix.observe(0, 0, 3.0)
    matrix.journal = journal = _ImportJournal()
    with pytest.raises(MatrixError):
        matrix.import_rows(_tampered(edit))
    assert matrix.n_queries == 2 and matrix.query_names == ["x", "y"]
    assert journal.imports == 0
    # The untouched payload goes in, and is journaled once.
    assert matrix.import_rows(_tampered(lambda p: None)) == [2, 3, 4]
    assert journal.imports == 1
    assert matrix.row_minima()[2:].tolist() == [1.5, np.inf, 0.25]


def test_copy_is_independent():
    matrix = WorkloadMatrix(1, 2)
    matrix.observe(0, 0, 1.0)
    clone = matrix.copy()
    clone.observe(0, 1, 2.0)
    assert not matrix.is_observed(0, 1)


class _Journal:
    """Counts what ``observe_batch`` would have made durable."""

    def __init__(self):
        self.records = 0

    def log_observe(self, queries, hints, latencies):
        self.records += 1


@pytest.mark.parametrize(
    "ids", [[1.9], [True], ["1"], [float("nan")], [None], [[0, 1]], 1, [-1], [3]]
)
def test_observe_batch_takes_integer_ids_or_writes_nothing(ids):
    """``1.9`` used to be truncated to row (or hint) 1, written and journaled."""
    matrix = WorkloadMatrix(3, 3)
    matrix.journal = journal = _Journal()
    size = np.asarray(ids, dtype=object).size
    with pytest.raises(MatrixError):
        matrix.observe_batch(ids, [1] * size, [0.5] * size)
    with pytest.raises(MatrixError):
        matrix.observe_batch([1] * size, ids, [0.5] * size)
    assert matrix.version == 0 and journal.records == 0
    assert not matrix.mask.any()


def test_checked_ids_accepts_every_integer_dtype_and_the_empty_batch():
    for ids in ([0, 2], (0, 2), np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.int32)):
        out = checked_ids("row", ids, 3, MatrixError)
        assert out.dtype == np.int64 and out.tolist() == [0, 2]
    trusted = np.array([0, 2], dtype=np.int64)
    assert checked_ids("row", trusted, 3, MatrixError) is trusted  # no copy
    assert checked_ids("row", [], 3, MatrixError).shape == (0,)
    for ids, message in (
        ([0.0], "integers"), ([[0]], "one-dimensional"), ([3], "out of range"),
        (np.array([2**63], dtype=np.uint64), "out of range"),
    ):
        with pytest.raises(MatrixError, match=message):
            checked_ids("row", ids, 3, MatrixError)


BAD_SCALAR_IDS = [True, np.bool_(True), 1.5, 2.0, "3", None, -1, 99]


def _five_by_four(tmp_path):
    from repro.durability.journal import ShardJournal

    matrix = WorkloadMatrix(5, 4)
    matrix.observe_batch([0, 1, 2, 3, 4], [0, 0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    journal = ShardJournal(str(tmp_path))
    journal.log_import(matrix.to_dict())
    matrix.journal = journal
    return matrix, journal


@pytest.mark.parametrize("bad", BAD_SCALAR_IDS, ids=repr)
def test_scalar_doors_take_integer_ids_or_touch_nothing(bad, tmp_path):
    """``observe(True, 2, x)`` used to pass ``0 <= True < n``, read as "new
    axis, row 2" and overwrite every hint of query 2 -- after journaling a
    record that replay refuses."""
    matrix, journal = _five_by_four(tmp_path)
    before = matrix.to_dict()
    version, records = matrix.version, journal.appended_records
    doors = [
        lambda q, h: matrix.observe(q, h, 0.5),
        lambda q, h: matrix.observe_censored(q, h, 0.5),
        matrix.is_observed,
        matrix.is_censored,
        matrix.value,
    ]
    for door in doors:
        with pytest.raises(MatrixError):
            door(bad, 2)
        with pytest.raises(MatrixError):
            door(2, bad)
    for row_door in (matrix.best_hint, matrix.unknown_in_row):
        with pytest.raises(MatrixError):
            row_door(bad)
    assert matrix.version == version and journal.appended_records == records
    after = matrix.to_dict()
    for name in ("values", "observed", "censored", "timeouts"):
        np.testing.assert_array_equal(before[name], after[name])
    assert int(matrix.mask.sum()) == 5
    journal.close()


def test_scalar_doors_accept_numpy_integers():
    matrix = WorkloadMatrix(5, 4)
    matrix.observe(np.int64(2), np.uint8(3), 0.25)
    matrix.observe_censored(np.int16(1), np.int32(2), 0.5)
    assert matrix.is_observed(2, 3) and matrix.value(np.int8(2), 3) == 0.25
    assert matrix.is_censored(1, 2) and matrix.best_hint(np.intp(2)) == 3
    assert int(matrix.mask.sum()) == 1


@pytest.mark.parametrize("ids", [[1.7], [True], ["1"], [None], [-1], [5]], ids=repr)
def test_row_set_doors_take_integer_ids_or_touch_nothing(ids, tmp_path):
    """``export_rows`` / ``remove_queries`` / ``invalidate`` truncated ``1.7``
    to row 1 (and read ``True`` as row 1) where ``observe_batch`` refused."""
    matrix, journal = _five_by_four(tmp_path)
    version, records = matrix.version, journal.appended_records
    for door in (matrix.export_rows, matrix.remove_queries, matrix.invalidate):
        with pytest.raises(MatrixError):
            door(ids)
    assert matrix.version == version and journal.appended_records == records
    assert matrix.n_queries == 5 and int(matrix.mask.sum()) == 5
    journal.close()


HOSTILE_VALUES = [np.nan, np.inf, -np.inf, -1.0, True, np.bool_(True), "2", None]


@pytest.mark.parametrize("bad", HOSTILE_VALUES + [0.0], ids=repr)
def test_every_cell_door_holds_the_one_value_rule(bad, tmp_path):
    """A latency is finite and >= 0, a bound finite and > 0, and neither is a
    bool: ``observe(q, h, True)`` used to record a latency of 1.0."""
    matrix, journal = _five_by_four(tmp_path)
    version, records = matrix.version, journal.appended_records
    censored_doors = [
        lambda: matrix.observe_censored(1, 2, bad),
        lambda: matrix.observe_censored_batch([1, 2], [2, 3], [bad, bad]),
    ]
    observed_doors = [
        lambda: matrix.observe(1, 2, bad),
        lambda: matrix.observe_batch([1, 2], [2, 3], [bad, bad]),
    ]
    zero = isinstance(bad, float) and bad == 0.0
    for door in censored_doors + ([] if zero else observed_doors):
        with pytest.raises(MatrixError, match="must be finite"):
            door()
    assert matrix.version == version and journal.appended_records == records
    if zero:  # a zero latency is a latency; a zero bound bounds nothing
        matrix.observe_batch([1, 2], [2, 3], [0.5, 0.0])
        assert matrix.value(2, 3) == 0.0
    journal.close()


@pytest.mark.parametrize("names", [[1, 2], [("a", 1)]], ids=repr)
def test_a_query_name_is_a_string_at_every_door(names, tmp_path):
    """``query_names=[1, 2]`` journaled and recovered as ints, and
    ``[('a', 1)]`` came back from the journal as ``[['a', 1]]``."""
    with pytest.raises(MatrixError, match="name is a string"):
        WorkloadMatrix(len(names), 3, query_names=names)
    payload = {**WorkloadMatrix(len(names), 3).to_dict(), "query_names": names}
    with pytest.raises(MatrixError, match="name is a string"):
        WorkloadMatrix.from_dict(payload)
    matrix, journal = _five_by_four(tmp_path)
    payload["hint_names"] = matrix.hint_names[:3]
    records = journal.appended_records
    with pytest.raises(MatrixError, match="name is a string"):
        matrix.import_rows({**payload, "values": np.full((len(names), 4), np.inf),
                            "observed": np.zeros((len(names), 4), bool),
                            "censored": np.zeros((len(names), 4), bool),
                            "timeouts": np.zeros((len(names), 4))})
    assert matrix.n_queries == 5 and journal.appended_records == records
    journal.close()
