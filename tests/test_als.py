"""Tests for censored alternating least squares (Algorithm 2)."""

import numpy as np
import pytest

from repro.config import ALSConfig
from repro.core import als
from repro.core.als import censored_als
from repro.core.predictors import ALSPredictor
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import CompletionError


def low_rank_matrix(n=30, k=12, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.gamma(2.0, 1.0, size=(n, rank))
    h = rng.gamma(2.0, 1.0, size=(k, rank))
    return q @ h.T


def random_mask(shape, fill, seed=0):
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) < fill).astype(float)
    mask[:, 0] = 1.0  # default column always observed
    return mask


def test_completes_exactly_observed_entries():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=30))
    observed = mask > 0
    assert np.allclose(result.completed[observed], truth[observed])


def test_recovers_unobserved_entries_of_low_rank_matrix():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.6, seed=1)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=40))
    unobserved = mask == 0
    rel_err = np.abs(result.completed[unobserved] - truth[unobserved]) / truth[unobserved]
    assert np.median(rel_err) < 0.3


def test_factors_have_requested_rank_and_are_nonnegative():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=4, iterations=10)
    result = censored_als(truth, mask, config=config)
    assert result.query_factors.shape == (truth.shape[0], 4)
    assert result.hint_factors.shape == (truth.shape[1], 4)
    assert (result.query_factors >= 0).all()
    assert (result.hint_factors >= 0).all()


def test_nonnegativity_can_be_disabled():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=10, nonnegative=False)
    result = censored_als(truth, mask, config=config)
    # Without the projection, at least some factor entries may go negative;
    # the completion must still reproduce observed entries.
    assert np.allclose(result.completed[mask > 0], truth[mask > 0])


def test_censored_entries_respect_lower_bounds():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.4, seed=2)
    timeouts = np.zeros_like(truth)
    censored_cells = [(1, 3), (5, 7), (10, 2)]
    for i, j in censored_cells:
        mask[i, j] = 0.0
        timeouts[i, j] = truth[i, j] * 2.0  # a bound above the natural value
    result = censored_als(truth, mask, timeouts, ALSConfig(rank=3, iterations=20))
    for i, j in censored_cells:
        assert result.completed[i, j] >= timeouts[i, j] - 1e-9


def test_censoring_disabled_ignores_timeouts():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.4, seed=2)
    timeouts = np.zeros_like(truth)
    timeouts[2, 2] = truth[2, 2] * 10
    mask[2, 2] = 0.0
    config = ALSConfig(rank=3, iterations=20, censored=False)
    result = censored_als(truth, mask, timeouts, config)
    assert result.completed[2, 2] < timeouts[2, 2]


def test_objective_trace_is_recorded_and_mostly_decreasing():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=15))
    trace = result.objective_trace
    assert len(trace) == 15
    assert trace[-1] <= trace[0]


def test_shape_validation():
    truth = low_rank_matrix()
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones((3, 3)))
    with pytest.raises(CompletionError):
        censored_als(truth, np.zeros_like(truth))
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones_like(truth), np.zeros((2, 2)))


def test_observed_entries_must_be_finite():
    truth = low_rank_matrix()
    truth[0, 0] = np.inf
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones_like(truth))


@pytest.mark.parametrize("hostile", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("censored", [True, False])
def test_hostile_timeouts_raise(hostile, censored):
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    mask[2, 5] = 0.0
    timeouts = np.zeros_like(truth)
    timeouts[2, 5] = hostile
    with pytest.raises(CompletionError, match="timeouts"):
        censored_als(truth, mask, timeouts, ALSConfig(rank=3, censored=censored))


def test_observed_value_wins_over_a_timeout_on_the_same_cell():
    truth = low_rank_matrix(n=8, k=6)
    mask = random_mask(truth.shape, 0.6, seed=4)
    mask[3, 2] = 1.0
    timeouts = np.zeros_like(truth)
    timeouts[3, 2] = truth[3, 2] * 3.0
    config = ALSConfig(rank=2, iterations=10)
    result = censored_als(truth, mask, timeouts, config)
    assert result.completed[3, 2] == truth[3, 2]
    # The overlapping bound has no influence at all on the solve.
    plain = censored_als(truth, mask, np.zeros_like(truth), config)
    assert np.array_equal(result.completed, plain.completed)
    assert np.array_equal(result.query_factors, plain.query_factors)


def test_rank_capped_by_matrix_dimensions():
    truth = low_rank_matrix(n=6, k=4, rank=2)
    mask = np.ones_like(truth)
    result = censored_als(truth, mask, config=ALSConfig(rank=10, iterations=5))
    assert result.query_factors.shape[1] == 4


def test_reproducible_for_fixed_seed():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=10, seed=123)
    a = censored_als(truth, mask, config=config)
    b = censored_als(truth, mask, config=config)
    assert np.allclose(a.completed, b.completed)


def test_tol_zero_never_stops_early():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=25))
    assert len(result.objective_trace) == 25


def test_solver_uses_the_regularization_constant(monkeypatch):
    assert als.REGULARIZATION == 0.2  # the paper's lambda
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=10)
    base = censored_als(truth, mask, config=config)
    monkeypatch.setattr(als, "REGULARIZATION", 50.0)
    damped = censored_als(truth, mask, config=config)
    # A heavier ridge penalty shrinks the factors and fits the cells worse.
    def norm(result):
        return np.linalg.norm(result.query_factors @ result.hint_factors.T)

    assert norm(damped) < norm(base)
    assert damped.objective_trace[-1] > base.objective_trace[-1]


def test_warm_start_with_fewer_iterations_refines_cold_result():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=30)
    cold = censored_als(truth, mask, config=config)
    warm = censored_als(
        truth, mask, config=config, warm_start=cold.factors, iterations=2
    )
    assert len(warm.objective_trace) == 2
    # Restarting from converged factors must not blow the objective back up.
    assert warm.objective_trace[-1] <= cold.objective_trace[-1] * 1.05


# -- the cells door: WorkloadMatrix.solver_cells() in place of the dense triple --------


def explored(n=40, k=9, seed=3):
    """A matrix mid-exploration: default column, ~30% observed, some censored."""
    truth = low_rank_matrix(n, k, seed=seed)
    rng = np.random.default_rng(seed)
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=int), truth[:, 0])
    rows, cols = np.nonzero(rng.random((n, k)) < 0.3)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    for query, hint in zip(*np.nonzero(rng.random((n, k)) < 0.1)):
        matrix.observe_censored(int(query), int(hint), 0.5 * truth[query, hint])
    return matrix, truth


def both_doors(matrix, config=None, **kwargs):
    """The same solve through the dense triple and through the cells."""
    dense = censored_als(
        matrix.values, matrix.mask, matrix.timeout_matrix, config, **kwargs
    )
    cells = censored_als(matrix.solver_cells(), config=config, **kwargs)
    return dense, cells


def assert_same_solve(dense, cells):
    assert np.array_equal(dense.completed, cells.completed)
    assert np.array_equal(dense.query_factors, cells.query_factors)
    assert np.array_equal(dense.hint_factors, cells.hint_factors)
    assert np.array_equal(dense.objective_trace, cells.objective_trace)


@pytest.mark.parametrize("censored", [True, False])
def test_cells_and_dense_triple_are_the_same_solve(censored):
    matrix, truth = explored()
    assert matrix.censored_mask.any()
    config = ALSConfig(rank=3, iterations=8, censored=censored)
    dense, cells = both_doors(matrix, config)  # cold
    assert_same_solve(dense, cells)
    matrix.observe_batch([1, 5], [4, 7], truth[[1, 5], [4, 7]])
    warm = both_doors(matrix, config, warm_start=cells.factors, iterations=3)
    assert_same_solve(*warm)
    matrix.observe(matrix.add_query(), 0, 2.5)  # grown past the warm factors
    assert_same_solve(*both_doors(matrix, config, warm_start=cells.factors, iterations=3))


def hostile_row(edit):
    """A matrix whose last row holds cells ``edit`` wrote straight into its
    arrays.  No door lets such a cell in (``import_rows`` and ``from_dict``
    refuse it), so this is the only way one reaches the solver, which must
    still refuse it, or ignore it, the same way through both doors."""
    matrix, _ = explored(n=6, k=5)
    donor = WorkloadMatrix(1, 5)
    donor.observe(0, 0, 4.0)
    donor.observe_censored(0, 2, 3.0)
    payload = donor.export_rows([0])
    payload["query_names"] = ["imported"]
    matrix.import_rows(payload)
    # Views of the last row: ``edit`` writes through them.  A censored
    # cell's bound is its value, so ``edit`` sets a bound through "values".
    keys = ("values", "observed", "censored")
    edit({key: getattr(matrix, f"_{key}")[-1:] for key in keys})
    matrix._restructured()
    return matrix


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["values"].__setitem__((0, 2), np.nan), "timeouts"),
        (lambda p: p["values"].__setitem__((0, 2), -1.0), "timeouts"),
        (lambda p: p["values"].__setitem__((0, 2), np.inf), "timeouts"),
        (lambda p: p["values"].__setitem__((0, 0), np.inf), "finite"),
        (lambda p: p["values"].__setitem__((0, 0), np.nan), "finite"),
    ],
)
def test_hostile_import_raises_the_same_error_through_both_doors(edit, message):
    matrix = hostile_row(edit)
    raised = []
    for solve in (
        lambda: censored_als(matrix.values, matrix.mask, matrix.timeout_matrix),
        lambda: censored_als(matrix.solver_cells()),
        lambda: ALSPredictor().predict(matrix),
    ):
        with pytest.raises(CompletionError, match=message) as caught:
            solve()
        raised.append(str(caught.value))
    assert len(set(raised)) == 1


def test_empty_mask_raises_the_same_error_through_both_doors():
    matrix = WorkloadMatrix(4, 3)
    matrix.observe_censored(1, 1, 2.0)
    with pytest.raises(CompletionError, match="empty") as dense:
        censored_als(matrix.values, matrix.mask, matrix.timeout_matrix)
    with pytest.raises(CompletionError, match="empty") as cells:
        censored_als(matrix.solver_cells())
    assert str(dense.value) == str(cells.value)


def test_imported_observation_beats_a_bound_on_the_same_cell_through_both_doors():
    def observed_and_censored(payload):
        # The matrix keeps a censored cell's bound in its value, so a cell
        # both observed and censored carries its observed 4.0 as its bound;
        # the solver must still take the observation and drop the bound.
        payload["censored"][0, 0] = True

    matrix = hostile_row(observed_and_censored)
    assert matrix.timeout_matrix[-1, 0] == 4.0  # both doors see the bound
    clean = hostile_row(lambda payload: None)
    config = ALSConfig(rank=2, iterations=6)
    dense, cells = both_doors(matrix, config)
    assert_same_solve(dense, cells)
    assert cells.completed[-1, 0] == 4.0
    # The overlapping bound has no influence at all on the solve.
    assert_same_solve(cells, censored_als(clean.solver_cells(), config=config))


def test_a_warm_predict_at_ceb_shape_allocates_no_input_copies():
    import tracemalloc

    n, k = 3133, 49
    truth = low_rank_matrix(n, k, rank=5, seed=2)
    rng = np.random.default_rng(2)
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=int), truth[:, 0])
    rows, cols = np.nonzero(rng.random((n, k)) < 0.024)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    for query, hint in zip(*np.nonzero(rng.random((n, k)) < 0.0015)):
        matrix.observe_censored(int(query), int(hint), 0.5 * truth[query, hint])
    predictor = ALSPredictor()
    predictor.predict(matrix)
    matrix.observe_batch(np.arange(10), np.full(10, 7), truth[:10, 7])
    tracemalloc.start()
    try:
        predictor.predict(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predictor.warm_solves == 1
    # The completed matrix it returns, plus n x r scraps: not the 4.4 matrices
    # of three dense input copies and a mask scan.
    assert peak <= 2.0 * n * k * 8
