"""A warm ALS solve starts from the product its predecessor left.

:class:`~repro.core.matrix_completion.WarmStartedALS` hands the solver its
whole last result; when the matrix kept its shape the solver restores that
result's ``completed`` to ``Q Hᵀ`` (the product at the cells the final fill
overwrote was kept) and starts there instead of recomputing the product.
The contracts under test:

* over exploration sequences -- observed and censored cells, raised bounds,
  an observation replacing a bound, a row invalidated by a data shift,
  re-anchors, ``reset()``, ``add_query`` growth, a second matrix object,
  diverged factors, and Equation 6's write-and-restore of the estimate --
  every solve equals, bit for bit, the solve ``censored_als`` does from the
  previous factors alone, and agrees with ``tests/test_als_reference.py``'s
  pre-optimisation solver;
* a result lends its buffer once: a second solve from it recomputes the
  product, and a forgotten row's clamped bound gets its product back;
* a warm solve at CEB shape allocates less than one ``n x k`` array;
* ``best_unexplored`` writing into the estimate and putting it back leaves
  the next solve bit-identical.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ALSConfig
from repro.core.als import censored_als
from repro.core.matrix_completion import WarmStartedALS
from repro.core.predictors import ALSPredictor
from repro.core.scoring import best_unexplored
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import CompletionError
from test_als_reference import _close, _reference_censored_als
from test_predictors_incremental import make_matrix

WARM, ANCHOR = 2, 3


def explored(n, k, seed):
    """An ``n x k`` matrix with the default column and ~30% more observed."""
    return make_matrix(n, k, fill=0.3, seed=seed)[0]


def assert_same_solve(actual, expected):
    assert np.array_equal(actual.completed, expected.completed)
    assert np.array_equal(actual.query_factors, expected.query_factors)
    assert np.array_equal(actual.hint_factors, expected.hint_factors)
    assert np.array_equal(actual.objective_trace, expected.objective_trace)


def solve_from_scratch(cells, config, factors, iterations):
    """What ``WarmStartedALS`` promises: the solve from the factors alone,
    and one cold solve of ``config.iterations`` when that fails."""
    if factors is None:
        return censored_als(cells, config=config, iterations=iterations)
    try:
        return censored_als(cells, config=config, warm_start=factors, iterations=iterations)
    except CompletionError:
        return censored_als(cells, config=config)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["observe", "censor", "raise", "replace", "invalidate", "grow", "reset",
             "anchor", "switch", "diverge", "score"]
        ),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=OPS,
    n=st.integers(4, 10),
    k=st.integers(3, 6),
    rank=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_every_solve_is_the_solve_from_the_previous_factors(ops, n, k, rank, seed):
    config = ALSConfig(rank=rank, iterations=4, seed=seed % 7)
    matrices = [explored(n, k, seed), explored(n + 1, k, seed + 1)]
    current = 0
    holder = WarmStartedALS(config)
    solved = None  # (matrix, version) the holder's result describes
    for op, draw in ops:
        matrix = matrices[current]
        rng = np.random.default_rng(draw)
        q, h = int(rng.integers(matrix.n_queries)), int(rng.integers(1, matrix.n_hints))
        censored = np.argwhere(matrix.censored_mask)
        anchor = None
        if op == "observe":
            matrix.observe(q, h, float(rng.uniform(0.5, 9.0)))
        elif op == "censor":
            # Bounds above most estimates, so the clamp binds and the fill
            # leaves the bound, not the product, in the cell.
            matrix.observe_censored_batch([q], [h], [float(rng.uniform(5.0, 60.0))])
        elif op in ("raise", "replace") and censored.size:
            q, h = (int(i) for i in censored[draw % len(censored)])
            if op == "raise":
                matrix.observe_censored(q, h, matrix.value(q, h) * 1.5)
            else:
                matrix.observe(q, h, matrix.value(q, h) * 1.2)
        elif op == "invalidate":
            # A data shift forgets a row, one with a bound if any: its known
            # cells must hold Q Hᵀ again.
            q = int(censored[draw % len(censored)][0]) if censored.size else q
            matrix.invalidate([q])
            matrix.observe(q, 0, float(rng.uniform(0.5, 9.0)))
        elif op == "grow":
            row = matrix.add_query()
            matrix.observe(row, 0, float(rng.uniform(0.5, 9.0)))
        elif op == "reset":
            holder.reset()
            solved = None
        elif op == "anchor":
            anchor = ANCHOR
        elif op == "switch":
            current = 1 - current
            matrix = matrices[current]
        elif op == "diverge" and holder.result is not None:
            # test_serving.py's diverged warm factors, then a write to solve for.
            holder.result.query_factors = np.ones_like(holder.result.query_factors)
            holder.result.hint_factors = np.full_like(holder.result.hint_factors, 1e9)
            matrix.observe(q, h, 2.0)
        elif op == "score" and solved is not None and solved[0] is matrix:
            best_unexplored(matrix, holder.result.completed)

        previous = holder.result
        factors = None if previous is None else previous.factors
        same = solved is not None and solved[0] is matrix
        counts = (holder.cold_solves, holder.warm_solves)
        result = holder.solve(matrix, WARM, anchor)
        if same and solved[1] == matrix.version:
            assert result is previous and (holder.cold_solves, holder.warm_solves) == counts
            continue
        cells = matrix.solver_cells()
        if same and anchor is None:
            expected = solve_from_scratch(cells, config, factors, WARM)
            warm = expected.objective_trace.size == WARM
        else:
            expected = solve_from_scratch(cells, config, None, anchor if same else None)
            warm = False
        assert_same_solve(result, expected)
        assert (holder.cold_solves, holder.warm_solves) == (
            counts[0] + (not warm), counts[1] + warm
        )
        if warm and np.abs(factors[1]).max() < 1e6:
            # The pre-optimisation solver, from the same factors.
            reference = _reference_censored_als(
                np.where(matrix.mask > 0, matrix.values, 0.0), matrix.mask,
                matrix.timeout_matrix, config, warm_start=factors, iterations=WARM,
            )
            scale = float(np.abs(matrix.values[matrix.mask > 0]).max())
            assert _close(result.completed, reference[0], scale)
            assert _close(result.query_factors, reference[1], scale)
            assert _close(result.hint_factors, reference[2], scale)
        solved = (matrix, matrix.version)


def test_a_result_lends_its_buffer_once():
    """The first solve from a result writes its estimate into the result's
    buffer; a second solve from the same result must not take that estimate
    for ``Q Hᵀ`` (a warm attempt that failed leaves its holder so).  The row
    forgotten in between held a bound the fill clamped: its cell must get
    the product back, not the bound."""
    matrix = explored(8, 5, seed=4)
    hint = int(np.flatnonzero(matrix.mask[2] == 0)[0])
    matrix.observe_censored_batch([2], [hint], [50.0])
    config = ALSConfig(rank=2, iterations=4)
    first = censored_als(matrix.solver_cells(), config=config)
    assert first.completed[2, hint] == 50.0 > first._product.cen_product[0]
    factors = first.factors
    matrix.invalidate([2])
    matrix.observe(2, 0, 1.5)
    cells = matrix.solver_cells()
    expected = censored_als(cells, config=config, warm_start=factors, iterations=WARM)
    lent = censored_als(cells, config=config, warm_start=first, iterations=WARM)
    assert lent.completed is first.completed
    assert_same_solve(lent, expected)
    again = censored_als(cells, config=config, warm_start=first, iterations=WARM)
    assert again.completed is not first.completed
    assert_same_solve(again, expected)


def ceb_shaped(seed):
    """3133 x 49 at ~3% observed with ~0.15% censored: mid-exploration CEB."""
    n, k = 3133, 49
    rng = np.random.default_rng(seed)
    truth = rng.gamma(2.0, 1.0, (n, 5)) @ rng.gamma(2.0, 1.0, (k, 5)).T
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), truth[:, 0])
    rows, cols = np.nonzero(rng.random((n, k)) < 0.024)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    rows, cols = np.nonzero((matrix.mask == 0) & (rng.random((n, k)) < 0.0015))
    matrix.observe_censored_batch(rows, cols, 0.5 * truth[rows, cols])
    return matrix, truth


def test_a_warm_solve_at_ceb_shape_allocates_less_than_one_matrix():
    """The warm solve writes into the buffer its predecessor returned: no
    ``np.empty((n, k))`` -- the one ``n x k`` array it used to allocate."""
    matrix, truth = ceb_shaped(2)
    predictor = ALSPredictor()
    first = predictor.predict(matrix)
    matrix.observe_batch(np.arange(10), np.full(10, 7), truth[:10, 7])
    matrix.solver_cells()  # the matrix's kept cells, brought up to date off the clock
    tracemalloc.start()
    try:
        estimate = predictor.predict(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, k = matrix.shape
    assert predictor.warm_solves == 1 and peak < n * k * 8  # ~0.29 of it; was ~1.25
    assert estimate is first


def test_equation_6_writing_into_the_estimate_leaves_the_next_solve_unchanged():
    """``best_unexplored`` sets the known cells of the estimate to ``inf``
    for its argmin and puts them back; the next warm solve starts from that
    buffer and is the solve from an unscored one, bit for bit."""
    matrix, truth = ceb_shaped(3)
    config = ALSConfig()
    scored, plain = WarmStartedALS(config), WarmStartedALS(config)
    rng = np.random.default_rng(3)
    for _ in range(4):
        estimate = scored.solve(matrix, WARM, None).completed
        before = estimate.copy()
        best_unexplored(matrix, estimate)
        assert np.array_equal(estimate, before)
        plain.solve(matrix, WARM, None)
        rows, cols = rng.integers(3133, size=10), rng.integers(1, 49, size=10)
        matrix.observe_batch(rows, cols, truth[rows, cols])
        result = scored.solve(matrix, WARM, None)
        assert result.completed is estimate  # the solve started from the scored buffer
        assert_same_solve(result, plain.solve(matrix, WARM, None))
    assert scored.warm_solves == plain.warm_solves > 0
