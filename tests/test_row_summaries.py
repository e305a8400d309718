"""Cached row minima against a from-scratch judge.

``WorkloadMatrix`` keeps its row minima with the version they were built at
and, on a read, re-gathers only the rows stamped since
(``rows_changed_since``); a changed row set rebuilds them.  The hypothesis
property drives arbitrary sequences of *every* mutator (the op interpreter
of ``test_incremental_cache.py``, plus ``from_dict``) with reads at random
points and after each read holds ``row_minima()``, ``row_stats([q])`` and
``workload_latency()`` to ``np.where(observed, values, inf).min(axis=1)``
computed from the exported state -- exactly, they are the same stored
doubles.  An array handed out earlier must never change.  The same check is
run once against a mutator that forgets to stamp its rows, and must fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload_matrix import WorkloadMatrix

from test_incremental_cache import apply  # one op of any mutator, cells drawn from a seed

MUTATORS = [
    "observe", "observe_batch", "censor", "noop_censor", "invalidate_rows",
    "invalidate_all", "add_query", "import_rows", "remove", "from_dict", "copy",
]
READS = ["read_minima", "read_row", "read_total"]
# One op = (kind, a seed the kind draws its cells from, a latency).
OPS = st.lists(
    st.tuples(
        st.sampled_from(MUTATORS + READS),
        st.integers(0, 2**16),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def judge(matrix):
    """Row minima from scratch, over the exported arrays."""
    state = matrix.to_dict()
    return np.where(state["observed"], state["values"], np.inf).min(axis=1)


def check_reads(matrix, ops):
    held = []  # (array handed out, its bytes at the time)
    for kind, arg, latency in ops + [(read, 0, 0.0) for read in READS]:
        if kind == "read_minima":
            minima = matrix.row_minima()
            assert minima.tobytes() == judge(matrix).tobytes()
            held.append((minima, minima.tobytes()))
        elif kind == "read_row":
            query = arg % matrix.n_queries
            assert matrix.row_stats([query])[0][0] == judge(matrix)[query]
        elif kind == "read_total":
            assert matrix.workload_latency() == float(judge(matrix).sum())
        else:
            matrix = apply(matrix, kind, arg, latency)  # a new one for from_dict / copy
        for minima, then in held:
            assert minima.tobytes() == then


class TestRowMinimaFollowTheStamps:
    @settings(max_examples=200, deadline=None)
    @given(ops=OPS, n=st.integers(1, 7), k=st.integers(1, 5), seed_default=st.booleans())
    def test_every_mutator_reads_at_random_points(
        self, ops, n, k, seed_default
    ):
        matrix = WorkloadMatrix(n, k)
        if seed_default:  # otherwise every row starts at inf
            matrix.observe_batch(np.arange(n), np.zeros(n, dtype=int), np.linspace(1.0, 9.0, n))
        check_reads(matrix, ops)

    def test_the_judge_catches_a_seeded_missing_stamp(self, monkeypatch):
        ops = [("read_minima", 0, 0.0), ("observe", 7, 0.25), ("read_total", 0, 0.0)]
        seeded = WorkloadMatrix(4, 3)
        seeded.observe_batch(np.arange(4), np.zeros(4, dtype=int), np.full(4, 5.0))
        check_reads(seeded.copy(), ops)

        def version_only(self, rows):  # bumps the version, stamps no row
            self._version += 1

        monkeypatch.setattr(WorkloadMatrix, "_stamp", version_only)
        with pytest.raises(AssertionError):
            check_reads(seeded.copy(), ops)

    def test_a_read_patches_only_the_rows_written_since(self, monkeypatch):
        matrix = WorkloadMatrix(50, 4)
        matrix.observe_batch(np.arange(50), np.zeros(50, dtype=int), np.full(50, 5.0))
        matrix.row_minima()
        gathered = []
        gather = WorkloadMatrix.observed_latencies
        monkeypatch.setattr(
            WorkloadMatrix,
            "observed_latencies",
            lambda self, rows: gathered.append(len(rows)) or gather(self, rows),
        )
        matrix.observe_batch([3, 3, 9], [1, 2, 1], [1.0, 2.0, 3.0])
        matrix.observe_censored(20, 3, 4.0)
        assert matrix.row_stats([3, 20])[0].tolist() == [1.0, 5.0]
        assert matrix.workload_latency() == 48 * 5.0 + 1.0 + 3.0
        assert gathered == [3]  # one patch of rows 3, 9 and 20; then cached
        matrix.add_query()  # the row set changed: every row, once
        assert matrix.row_minima()[-1] == np.inf and gathered == [3, 51]
