"""Algorithm 1's picks and the solver's cells against their reference.

``reference_select`` is ``LimeQOPolicy.select``'s scoring body as it stood
before the matrix kept its known cells (an ``n x k`` unknown mask, a masked
``np.where``, ``unknown.any(axis=1)``), and ``reference_solver_cells`` is the
``flatnonzero`` gather ``WorkloadMatrix.solver_cells`` replaced.  The
property drives a matrix through random sequences of observe / censor /
invalidate / add / import / remove, reading the kept state after some writes
and not others, and asserts after each read that the picks are ``==`` to the
reference's and that the solver's cells are ``array_equal`` to a fresh gather.

Predictions are drawn from a few integers so rows tie on their best hint,
every row with no completed observation scores ``+inf`` (so more than 16
candidates tie and numpy's unstable ``argsort`` decides their order), and
small ``k`` leaves rows with nothing left to execute.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.als import SolverCells
from repro.core.policies import LimeQOPolicy
from repro.core.predictors import Predictor
from repro.core.scoring import best_unexplored
from repro.core.workload_matrix import WorkloadMatrix


def reference_select(policy, matrix, predicted, batch_size, rng):
    """The pre-kept-state ``LimeQOPolicy.select`` after its prediction."""
    unknown = matrix.unknown_mask()
    masked = np.where(unknown, predicted, np.inf)
    best_unknown = masked.argmin(axis=1)
    has_unknown = unknown.any(axis=1)
    current_best = matrix.row_minima()

    rows = np.arange(matrix.n_queries)
    predicted_latency = np.maximum(predicted[rows, best_unknown], 1e-9)
    with np.errstate(invalid="ignore"):
        ratios = np.where(
            np.isinf(current_best),
            np.inf,
            (current_best - predicted_latency) / predicted_latency,
        )
    eligible = has_unknown & (ratios > 0)
    candidate_rows = np.nonzero(eligible)[0]
    scores = ratios[eligible]

    if scores.size:
        order = np.argsort(-scores)
        top_rows = candidate_rows[order[:batch_size]]
        picks = [(int(q), int(best_unknown[q])) for q in top_rows]
    else:
        picks = []
    if len(picks) < batch_size:
        picks.extend(policy._random_fill(matrix, picks, batch_size - len(picks), rng))
    return picks


def reference_solver_cells(matrix):
    """The pre-kept-state ``solver_cells``: two scans over the flags."""
    state = matrix.to_dict()
    obs = np.flatnonzero(state["observed"])
    cen = np.flatnonzero(state["censored"])
    values, bounds = state["values"].reshape(-1), state["timeouts"].reshape(-1)
    return SolverCells(matrix.shape, obs, values[obs], cen, bounds[cen])


class FixedPredictor(Predictor):
    """Hands back whatever prediction the test sets."""

    name = "fixed"

    def __init__(self):
        super().__init__()
        self.prediction = None

    def _predict(self, matrix):
        return self.prediction


def _write(matrix, data, n_hints):
    """One random write; returns nothing, may be a refused no-op."""
    n = matrix.n_queries

    def cell():
        return data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n_hints - 1))

    kind = data.draw(
        st.sampled_from(
            ["observe", "observe", "censor", "censor", "batch", "invalidate",
             "invalidate_all", "add", "import", "remove"]
        )
    )
    if kind == "observe":
        matrix.observe(*cell(), float(data.draw(st.integers(1, 6))))
    elif kind == "censor":
        matrix.observe_censored(*cell(), float(data.draw(st.integers(1, 6))))
    elif kind == "batch":
        cells = [cell() for _ in range(data.draw(st.integers(0, 6)))]
        matrix.observe_batch(
            np.array([c[0] for c in cells], dtype=np.int64),
            np.array([c[1] for c in cells], dtype=np.int64),
            [float(data.draw(st.integers(1, 6))) for _ in cells],
        )
    elif kind == "invalidate":
        matrix.invalidate(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    elif kind == "invalidate_all":
        matrix.invalidate()
    elif kind == "add":
        matrix.add_query()
    elif kind == "import":
        donor = WorkloadMatrix(data.draw(st.integers(1, 3)), n_hints)
        donor.observe(0, 0, 2.0)
        donor.observe_censored(donor.n_queries - 1, n_hints - 1, 5.0)
        matrix.import_rows(donor.export_rows(range(donor.n_queries)))
    elif n > 1:
        drop = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        matrix.remove_queries(sorted(set(drop))[: n - 1])


@settings(max_examples=60, deadline=None)
@given(
    # Under 64 rows every read rebuilds; from 64 a read after few writes patches.
    n=st.one_of(st.integers(1, 40), st.integers(64, 300)),
    k=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_picks_and_solver_cells_match_the_reference(n, k, batch_size, seed, data):
    matrix = WorkloadMatrix(n, k)
    predictor = FixedPredictor()
    policy = LimeQOPolicy(predictor)
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        _write(matrix, data, k)
        if not data.draw(st.booleans()):
            continue  # several writes between two reads
        rng = np.random.default_rng(seed)
        predicted = rng.integers(1, 5, matrix.shape).astype(float)
        # The known cells are masked in the caller's array and put back;
        # a read-only or Fortran-ordered prediction is masked in a copy.
        layout = data.draw(st.sampled_from(["C", "F", "read-only"]))
        if layout == "F":
            predicted = np.asfortranarray(predicted)
        elif layout == "read-only":
            predicted.flags.writeable = False
        before = predicted.copy()
        predictor.prediction = predicted
        picks = policy.select(matrix, batch_size, np.random.default_rng(seed))
        assert np.array_equal(predicted, before)
        assert picks == reference_select(
            policy, matrix, predicted, batch_size, np.random.default_rng(seed)
        )
        cells, ref = matrix.solver_cells(), reference_solver_cells(matrix)
        assert cells.shape == ref.shape
        for got, want in zip(cells[1:], ref[1:]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        known = ~matrix.unknown_mask()
        assert np.array_equal(matrix.known_cells()[2], known.sum(axis=1))
        exhausted = known.all(axis=1)
        _, ratios = best_unexplored(matrix, predicted)
        assert (ratios == -np.inf).tolist() == exhausted.tolist()
        assert np.array_equal(predicted, before)


def test_improvement_ratios_rank_the_rows_select_picks():
    """Equation 6's ratios score the best *unexplored* hint, as
    ``select`` does: its positive top ``m`` are the rows picked.  Row 0's
    overall predicted best is its observed default, so scoring every hint
    would rank it first although nothing left in it is predicted to help."""
    matrix = WorkloadMatrix(3, 3)
    for row in range(3):
        matrix.observe(row, 0, 10.0)
    predictor = FixedPredictor()
    predictor.prediction = np.array(
        [[1.0, 20.0, 30.0], [10.0, 5.0, 30.0], [10.0, 8.0, 9.0]]
    )
    policy = LimeQOPolicy(predictor)
    best, ratios = best_unexplored(matrix, predictor.prediction)
    positive = np.flatnonzero(ratios > 0)
    ranked = positive[np.argsort(-ratios[positive])].tolist()
    picks = policy.select(matrix, 2, np.random.default_rng(0))
    assert ranked == [q for q, _ in picks] == [1, 2]
    assert [h for _, h in picks] == best[[1, 2]].tolist() == [1, 1]
