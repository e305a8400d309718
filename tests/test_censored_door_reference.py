"""The explorer's censored writes against the per-cell body they replaced.

``ReferenceExplorer`` is ``OfflineExplorer`` with the ``_record_chunk`` it had
before censored cells got one door: every censored cell went through the
scalar ``observe_censored`` (one ``censor`` record each).  The property runs
both explorers side by side on copies of one matrix, journaled or not, with
predictions drawn from values that reach every timeout branch -- ties, zero,
negative, ``nan``, ``inf`` and caps that overflow to ``inf`` -- and asserts
after every step that the picks, the timeouts and the matrices are equal, and
at the end that both journals replay to that same matrix.
"""

import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExplorationConfig
from repro.core.explorer import MatrixOracle, OfflineExplorer
from repro.core.policies import LimeQOPolicy
from repro.core.predictors import Predictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import ShardJournal, recover_journal

ARRAYS = ("values", "observed", "censored", "timeouts")


class ReferenceExplorer(OfflineExplorer):
    """The per-cell ``_record_chunk`` body."""

    def _record_chunk(self, chunk, results):
        completed_q, completed_h, completed_lat = [], [], []
        for (query, hint), result in zip(chunk, results):
            if result.timed_out:
                self.matrix.observe_censored(query, hint, result.charged_time)
            else:
                completed_q.append(query)
                completed_h.append(hint)
                completed_lat.append(result.latency)
        if completed_q:
            self.matrix.observe_batch(completed_q, completed_h, completed_lat)


class FixedPredictor(Predictor):
    """Hands back whatever prediction the test sets."""

    name = "fixed"

    def __init__(self):
        super().__init__()
        self.prediction = None

    def _predict(self, matrix):
        return self.prediction


PREDICTIONS = [0.5, 1.0, 2.0, 3.0, 0.0, -1.0, math.nan, math.inf, 1e308]


def assert_same(a, b):
    got, want = a.to_dict(), b.to_dict()
    for key in ARRAYS:
        assert got[key].tobytes() == want[key].tobytes(), key


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 5),
    batch_size=st.integers(1, 8),
    alpha=st.sampled_from([0.5, 2.0, 1e300]),
    seed=st.integers(0, 10_000),
    journaled=st.booleans(),
    data=st.data(),
)
def test_timeouts_and_censored_writes_match_the_per_cell_body(
    n, k, batch_size, alpha, seed, journaled, data
):
    rng = np.random.default_rng(seed)
    truth = rng.choice([0.25, 1.0, 2.0, 4.0, 8.0], size=(n, k))
    start = WorkloadMatrix(n, k)
    seen = rng.random((n, k)) < 0.3
    seen[:, 0] = rng.random(n) < 0.7  # a row with nothing completed has no timeout
    rows, cols = np.nonzero(seen)
    start.observe_batch(rows, cols, truth[rows, cols])
    bound = rng.random((n, k)) < 0.2
    rows, cols = np.nonzero(bound)
    start.observe_censored_batch(rows, cols, truth[rows, cols] / 2)

    homes = [tempfile.mkdtemp(prefix="repro-door-") for _ in range(2)]
    try:
        explorers = []
        for home, cls in zip(homes, (OfflineExplorer, ReferenceExplorer)):
            matrix = start.copy()
            if journaled:
                journal = ShardJournal(home)
                journal.log_import(matrix.to_dict())
                matrix.journal = journal
            config = ExplorationConfig(batch_size=batch_size, timeout_alpha=alpha, seed=seed)
            explorers.append(
                cls(matrix, LimeQOPolicy(FixedPredictor()), MatrixOracle(truth), config)
            )
        subject, reference = explorers
        for _ in range(data.draw(st.integers(1, 6))):
            # One drawn prediction per step, seen by both policies.
            prediction = data.draw(
                st.lists(st.sampled_from(PREDICTIONS), min_size=n * k, max_size=n * k)
            )
            for explorer in explorers:
                explorer.policy.predictor.prediction = np.reshape(prediction, (n, k))
            got, want = subject.step(), reference.step()
            if want is None:
                assert got is None
                break
            assert got.selected == want.selected
            assert got.timeouts_used == want.timeouts_used
            assert [r.timed_out for r in got.results] == [r.timed_out for r in want.results]
            assert got.exploration_time_delta == want.exploration_time_delta
            assert_same(subject.matrix, reference.matrix)
        for explorer, home in zip(explorers, homes if journaled else []):
            explorer.matrix.journal.close()
            journal, state = recover_journal(home)
            journal.close()
            assert_same(state.matrix, subject.matrix)
    finally:
        for home in homes:
            shutil.rmtree(home, ignore_errors=True)


def test_a_chunk_of_censored_cells_is_one_record(tmp_path):
    """The door the explorer now uses writes one ``censor`` record a chunk."""
    truth = np.array([[1.0, 9.0, 9.0], [1.0, 9.0, 9.0], [1.0, 9.0, 9.0]])
    matrix = WorkloadMatrix(3, 3)
    matrix.observe_batch([0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0])
    journal = ShardJournal(str(tmp_path))
    journal.log_import(matrix.to_dict())
    matrix.journal = journal
    explorer = OfflineExplorer(matrix, None, MatrixOracle(truth))
    before = journal.appended_records
    explorer._record_chunk(
        [(0, 1), (1, 2), (2, 1)],
        MatrixOracle(truth).execute_many([0, 1, 2], [1, 2, 1], [1.0, 1.0, 1.0]),
    )
    assert journal.appended_records == before + 1
    assert matrix.censored_mask.sum() == 3


@pytest.mark.parametrize(
    "queries,hints,bounds",
    [
        ([True, False], [0, 1], [1.0, 1.0]),  # bools are not rows
        ([0, 1.5], [0, 1], [1.0, 1.0]),  # nor is a float
        ([0, 3], [0, 1], [1.0, 1.0]),  # out of range
        ([0, 1], [0, 1], [1.0, 0.0]),  # a bound must be > 0
        ([0, 1], [0, 1], [1.0, math.nan]),
        ([0, 1], [0, 1], [1.0, math.inf]),
        ([0, 1], [0], [1.0, 1.0]),  # lengths disagree
    ],
)
def test_the_batched_censored_door_refuses_what_the_scalar_one_does(
    tmp_path, queries, hints, bounds
):
    from repro.errors import MatrixError

    matrix = WorkloadMatrix(3, 2)
    journal = ShardJournal(str(tmp_path))
    matrix.journal = journal
    with pytest.raises(MatrixError):
        matrix.observe_censored_batch(queries, hints, bounds)
    assert journal.appended_records == 0
    assert not matrix.censored_mask.any()


def test_the_batched_censored_door_keeps_the_largest_bound_and_skips_observed():
    matrix = WorkloadMatrix(2, 2)
    matrix.observe(0, 0, 3.0)
    matrix.observe_censored(1, 1, 4.0)
    matrix.observe_censored_batch([1, 1, 0, 1], [0, 0, 0, 1], [2.0, 5.0, 9.0, 1.0])
    reference = WorkloadMatrix(2, 2)
    reference.observe(0, 0, 3.0)
    for q, h, b in [(1, 1, 4.0), (1, 0, 2.0), (1, 0, 5.0), (0, 0, 9.0), (1, 1, 1.0)]:
        reference.observe_censored(q, h, b)
    assert_same(matrix, reference)
    assert matrix.timeout_matrix.tolist() == [[0.0, 0.0], [5.0, 4.0]]
