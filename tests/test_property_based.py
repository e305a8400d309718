"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import ALSConfig
from repro.core.als import censored_als
from repro.core.plan_cache import PlanCache
from repro.core.workload_matrix import WorkloadMatrix
from taped_tcnn import parameter

latencies = st.floats(min_value=0.001, max_value=1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_workload_matrix_row_min_is_min_of_observed(n, k, data):
    matrix = WorkloadMatrix(n, k)
    observed = {}
    cells = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, k - 1), latencies
            ),
            max_size=20,
        )
    )
    for i, j, value in cells:
        matrix.observe(i, j, value)
        observed[(i, j)] = value
    minima = matrix.row_minima()
    for i in range(n):
        row_values = [v for (qi, _), v in observed.items() if qi == i]
        if row_values:
            assert minima[i] == min(row_values)
        else:
            assert minima[i] == float("inf")
    # Workload latency is the sum of row minima.  numpy's pairwise
    # summation and Python's sequential sum can differ in the last ulp,
    # so the comparison is exact only up to float associativity.
    expected = sum(
        min([v for (qi, _), v in observed.items() if qi == i], default=float("inf"))
        for i in range(n)
    )
    if np.isinf(expected):
        assert matrix.workload_latency() == expected
    else:
        assert matrix.workload_latency() == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_workload_matrix_cells_follow_the_write_rules(n, k, data):
    """Any interleaving of completed and censored writes leaves every cell
    where a dict model says: a completion overwrites and clears the censor,
    a censor on a completed cell is ignored, and a cell censored twice
    keeps its largest bound."""
    matrix = WorkloadMatrix(n, k)
    completed, censored = {}, {}
    writes = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, k - 1), latencies, st.booleans()),
            max_size=30,
        )
    )
    for i, j, value, censor in writes:
        if censor:
            matrix.observe_censored(i, j, value)
            if (i, j) not in completed:
                censored[(i, j)] = max(censored.get((i, j), 0.0), value)
        else:
            matrix.observe(i, j, value)
            completed[(i, j)] = value
            censored.pop((i, j), None)
    values, timeouts = matrix.values, matrix.timeout_matrix
    for i in range(n):
        for j in range(k):
            assert matrix.is_observed(i, j) == ((i, j) in completed)
            assert matrix.is_censored(i, j) == ((i, j) in censored)
            expected = completed.get((i, j), censored.get((i, j), float("inf")))
            assert values[i, j] == expected
            assert timeouts[i, j] == censored.get((i, j), 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    k=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_plan_cache_snapshot_matches_per_query_lookup(n, k, data):
    """Snapshot decisions equal scalar decisions for any observed/censored mix.

    The snapshot decides the whole matrix once per version; the scalar
    path walks one row per call.  They must agree cell-for-cell --
    including rows with no observations and censored-only rows.
    """
    matrix = WorkloadMatrix(n, k)
    cells = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, k - 1),
                latencies,
                st.booleans(),
            ),
            max_size=25,
        )
    )
    for i, j, value, censor in cells:
        if censor:
            matrix.observe_censored(i, j, value)
        else:
            matrix.observe(i, j, value)
    queries = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=30)
    )
    snap = PlanCache(matrix).snapshot()
    scalar_cache = PlanCache(matrix)
    for q in queries:
        decision = scalar_cache.lookup(q)
        assert (snap.hints[q], snap.used_default[q], snap.expected_latency[q]) == (
            decision.hint, decision.used_default, decision.expected_latency
        )


@settings(max_examples=15, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=50),
    fill=st.floats(min_value=0.3, max_value=1.0),
)
def test_censored_als_reproduces_observed_entries_and_stays_finite(rank, seed, fill):
    rng = np.random.default_rng(seed)
    truth = rng.gamma(2.0, 1.0, (12, 3)) @ rng.gamma(2.0, 1.0, (7, 3)).T
    mask = (rng.random(truth.shape) < fill).astype(float)
    mask[:, 0] = 1.0
    result = censored_als(
        np.where(mask > 0, truth, 0.0), mask,
        config=ALSConfig(rank=rank, iterations=8, seed=seed),
    )
    assert np.isfinite(result.completed).all()
    assert (result.completed >= -1e-9).all()
    observed = mask > 0
    assert np.allclose(result.completed[observed], truth[observed])


@settings(max_examples=20, deadline=None)
@given(
    values=arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False)),
)
def test_autograd_sum_gradient_is_ones(values):
    x = parameter(values.copy())
    x.sum().backward()
    assert np.allclose(x.grad, np.ones_like(values))


@settings(max_examples=20, deadline=None)
@given(
    a=arrays(np.float64, (2, 3), elements=st.floats(-3, 3, allow_nan=False)),
    b=arrays(np.float64, (2, 3), elements=st.floats(-3, 3, allow_nan=False)),
)
def test_autograd_product_rule(a, b):
    ta, tb = parameter(a.copy()), parameter(b.copy())
    (ta * tb).sum().backward()
    assert np.allclose(ta.grad, b)
    assert np.allclose(tb.grad, a)
