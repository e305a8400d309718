"""The three-array matrix against the four-array one it replaced.

``WorkloadMatrix`` keeps a censored cell's bound in its value and derives the
timeout matrix from the censored flags.  ``FourArrays`` below is the storage
it replaced, kept as the judge: a separate ``timeouts`` array that every
mutator writes, and the per-cell bodies of the batched doors.  A hypothesis
property runs random sequences of every mutator on both (duplicate cells,
censors of observed cells, bounds below and above the current one) and after
every step holds ``to_dict()`` (all four arrays), ``timeout_matrix``,
``solver_cells()`` and ``rows_changed_since`` to the judge's, byte for byte,
and ``to_dict(from_dict(p))`` to ``p``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload_matrix import WorkloadMatrix

ARRAYS = ("values", "observed", "censored", "timeouts")
K = 3
LATENCIES = st.sampled_from([1.5, 2.0, 0.1 + 0.2, 5e-324, 1e308, -0.0, 0.0])
BOUNDS = st.sampled_from([1.5, 2.0, 0.1 + 0.2, 5e-324, 1e308, 4.0])


class FourArrays:
    """The matrix's state as four arrays, a version and per-row stamps."""

    def __init__(self, n):
        self.values, self.timeouts = np.full((n, K), np.inf), np.zeros((n, K))
        self.observed, self.censored = np.zeros((n, K), bool), np.zeros((n, K), bool)
        self.names = [f"q{i}" for i in range(n)]
        self.version, self.structure = 0, 0
        self.stamps = np.zeros(n, dtype=np.int64)

    def stamp(self, rows):
        self.version += 1
        self.stamps[rows] = self.version

    def restructure(self):
        self.version += 1
        self.structure = self.version
        self.stamps = np.full(len(self.names), self.version, dtype=np.int64)

    def observe(self, cells, latencies):
        for (q, h), latency in zip(cells, latencies):
            self.values[q, h], self.observed[q, h] = latency, True
            self.censored[q, h], self.timeouts[q, h] = False, 0.0
        if cells:
            self.stamp([q for q, _ in cells])

    def censor(self, cells, bounds):
        fresh = [(q, h, b) for (q, h), b in zip(cells, bounds) if not self.observed[q, h]]
        for q, h, bound in fresh:
            self.timeouts[q, h] = max(self.timeouts[q, h], bound)
            self.censored[q, h], self.values[q, h] = True, self.timeouts[q, h]
        if fresh:
            self.stamp([q for q, _, _ in fresh])

    def invalidate(self, rows):
        self.values[rows], self.timeouts[rows] = np.inf, 0.0
        self.observed[rows], self.censored[rows] = False, False
        self.stamp(rows)

    def append(self, payload):
        for key in ARRAYS:
            setattr(self, key, np.vstack([getattr(self, key), payload[key]]))
        self.names += payload["query_names"]
        self.restructure()

    def export(self, rows):
        payload = {key: getattr(self, key)[rows] for key in ARRAYS}
        return {**payload, "query_names": [f"{self.names[q]}'" for q in rows]}

    def remove(self, rows):
        keep = np.ones(len(self.names), dtype=bool)
        keep[rows] = False
        for key in ARRAYS:
            setattr(self, key, getattr(self, key)[keep])
        self.names = [name for name, kept in zip(self.names, keep) if kept]
        self.restructure()

    def changed_since(self, version):
        return None if version < self.structure else np.flatnonzero(self.stamps > version)


def step(matrix, model, data):
    """Draw one mutator and apply it to both."""
    n = matrix.n_queries
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, K - 1))
    cells = data.draw(st.lists(cell, max_size=6))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    kind = data.draw(st.sampled_from(
        ["observe", "observe_batch", "censor", "censor_batch", "censor_batch",
         "invalidate", "invalidate_all", "add_query", "import", "remove"]
    ))
    if kind in ("observe", "censor"):
        cells = cells[:1] or [(0, 0)]
    if kind.startswith("observe"):
        latencies = [data.draw(LATENCIES) for _ in cells]
        if kind == "observe":
            matrix.observe(*cells[0], latencies[0])
        else:
            matrix.observe_batch([q for q, _ in cells], [h for _, h in cells], latencies)
        model.observe(cells, latencies)
    elif kind.startswith("censor"):
        bounds = [data.draw(BOUNDS) for _ in cells]
        if kind == "censor":
            matrix.observe_censored(*cells[0], bounds[0])
        else:
            matrix.observe_censored_batch([q for q, _ in cells], [h for _, h in cells], bounds)
        model.censor(cells, bounds)
    elif kind == "invalidate":
        matrix.invalidate(rows)
        model.invalidate(rows)
    elif kind == "invalidate_all":
        matrix.invalidate()
        model.invalidate(slice(None))
    elif kind == "add_query":
        matrix.add_query(f"new{n}")
        model.append({
            "values": np.full((1, K), np.inf), "observed": np.zeros((1, K), bool),
            "censored": np.zeros((1, K), bool), "timeouts": np.zeros((1, K)),
            "query_names": [f"new{n}"],
        })
    elif kind == "import" and rows:
        payload = matrix.export_rows(rows)
        payload["query_names"] = [f"{name}'" for name in payload["query_names"]]
        expected = model.export(rows)
        for key in ARRAYS:
            assert payload[key].tobytes() == expected[key].tobytes(), key
        matrix.import_rows(payload)
        model.append(expected)
    elif kind == "remove" and rows and len(rows) < n:
        matrix.remove_queries(rows)
        model.remove(rows)


def check(matrix, model):
    state = matrix.to_dict()
    for key in ARRAYS:
        assert state[key].dtype == getattr(model, key).dtype, key
        assert state[key].tobytes() == getattr(model, key).tobytes(), key
    assert state["query_names"] == model.names
    assert matrix.timeout_matrix.tobytes() == model.timeouts.tobytes()
    cells = matrix.solver_cells()
    obs, cen = np.flatnonzero(model.observed), np.flatnonzero(model.censored)
    expected = (obs, model.values.ravel()[obs], cen, model.timeouts.ravel()[cen])
    for got, want in zip(cells[1:], expected):
        assert got.tobytes() == want.tobytes()
    assert matrix.version == model.version
    for version in range(model.version + 1):
        got, want = matrix.rows_changed_since(version), model.changed_since(version)
        assert (got is None) == (want is None) and (want is None or np.array_equal(got, want))
    again = WorkloadMatrix.from_dict(state).to_dict()
    for key in ARRAYS:
        assert again[key].tobytes() == state[key].tobytes(), key


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_every_mutator_sequence_matches_the_four_array_matrix(n, data):
    matrix, model = WorkloadMatrix(n, K), FourArrays(n)
    check(matrix, model)
    for _ in range(data.draw(st.integers(1, 12))):
        step(matrix, model, data)
        check(matrix, model)


def test_a_matrix_keeps_ten_bytes_a_cell():
    """``_values`` 8 + ``_observed`` 1 + ``_censored`` 1: the censored
    bounds live in ``_values``, and nothing else is ``n x k``."""
    matrix = WorkloadMatrix(300, 49)
    matrix.observe_censored_batch(np.arange(300), np.zeros(300, dtype=np.int64), np.ones(300))
    cells = [value for value in vars(matrix).values() if isinstance(value, np.ndarray)
             and value.shape == matrix.shape]
    assert sum(array.nbytes for array in cells) == 10 * 300 * 49
