"""Equivalence of the optimised censored-ALS solver against the reference.

``_reference_censored_als`` below is a line-for-line copy of the solver as
it stood *before* any performance pass (dense baseline initialisation,
full-matrix blend-and-copy fill-in, objective summed over the whole masked
matrix, Algorithm 2's literal ``W̃ H (HᵀH + λI)⁻¹`` update).  The hypothesis
property asserts the optimised solver reproduces the reference's factors,
completion, and objective trace within ``1e-8`` across random shapes, masks
(binary or any positive weights), censored cells, ``censored=False``, ranks
clamped by the matrix, and warm starts that cover the matrix or stop short
of a grown one; one more check does the same at the paper's CEB shape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ALSConfig
from repro.core.als import censored_als


def _reference_censored_als(observed, mask, timeouts, config, warm_start=None,
                            iterations=None):
    """The pre-optimisation solver (Algorithm 2), kept verbatim for tests."""
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask, dtype=float)
    timeouts = np.asarray(timeouts, dtype=float)
    if not config.censored:
        timeouts = np.zeros_like(timeouts)
    n, k = observed.shape
    rank = min(config.rank, n, k)
    rng = np.random.default_rng(config.seed)

    observed_filled = np.where(mask > 0, observed, 0.0)
    mean_value = float(observed_filled[mask > 0].mean()) if mask.sum() else 1.0
    row_counts = mask.sum(axis=1)
    row_means = np.where(
        row_counts > 0,
        (observed_filled * mask).sum(axis=1) / np.maximum(row_counts, 1.0),
        mean_value,
    )
    ratio_matrix = np.where(
        mask > 0, observed_filled / np.maximum(row_means[:, None], 1e-9), 0.0
    )
    column_counts = mask.sum(axis=0)
    column_ratios = np.where(
        column_counts > 0,
        ratio_matrix.sum(axis=0) / np.maximum(column_counts, 1.0),
        1.0,
    )
    query_factors = rng.random((n, rank)) * 1e-2
    hint_factors = rng.random((k, rank)) * 1e-2
    query_factors[:, 0] = np.maximum(row_means, 1e-9)
    hint_factors[:, 0] = np.maximum(column_ratios, 1e-9)

    if warm_start is not None:
        warm_q, warm_h = warm_start
        query_factors[: warm_q.shape[0]] = warm_q
        hint_factors[: warm_h.shape[0]] = warm_h

    n_iterations = config.iterations if iterations is None else int(iterations)
    reg = config.regularization * np.eye(rank)
    objective_trace = []

    def _apply_censoring(estimate):
        censored = timeouts > 0
        if not censored.any():
            return estimate
        clamped = estimate.copy()
        clamped[censored] = np.maximum(clamped[censored], timeouts[censored])
        return clamped

    def _fill(current_q, current_h):
        estimate = mask * observed_filled + (1.0 - mask) * (current_q @ current_h.T)
        return _apply_censoring(estimate)

    for _ in range(n_iterations):
        completed = _fill(query_factors, hint_factors)
        gram_h = hint_factors.T @ hint_factors + reg
        query_factors = completed @ hint_factors @ np.linalg.inv(gram_h)
        if config.nonnegative:
            np.maximum(query_factors, 0.0, out=query_factors)

        completed = _fill(query_factors, hint_factors)
        gram_q = query_factors.T @ query_factors + reg
        hint_factors = completed.T @ query_factors @ np.linalg.inv(gram_q)
        if config.nonnegative:
            np.maximum(hint_factors, 0.0, out=hint_factors)

        estimate = query_factors @ hint_factors.T
        residual = mask * (observed_filled - estimate)
        objective_trace.append(float((residual ** 2).sum()))

    completed = _fill(query_factors, hint_factors)
    return completed, query_factors, hint_factors, np.asarray(objective_trace)


def _close(a, b, scale=1.0):
    return np.allclose(a, b, rtol=1e-8, atol=1e-8 * max(scale, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    k=st.integers(min_value=3, max_value=10),
    rank=st.integers(min_value=1, max_value=6),  # above min(n, k): clamped
    iterations=st.integers(min_value=1, max_value=12),
    regularization=st.floats(min_value=0.05, max_value=1.0),
    nonnegative=st.booleans(),
    censored=st.booleans(),
    weighted_mask=st.booleans(),
    grown_rows=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_optimised_solver_matches_reference(
    n, k, rank, iterations, regularization, nonnegative, censored, weighted_mask,
    grown_rows, seed, data
):
    rng = np.random.default_rng(seed)
    true_rank = min(rank + 1, n, k)
    truth = rng.gamma(2.0, 1.0, (n, true_rank)) @ rng.gamma(2.0, 1.0, (k, true_rank)).T

    mask = (rng.random((n, k)) < data.draw(st.floats(0.3, 0.9))).astype(float)
    mask[:, 0] = 1.0  # default column always observed (library invariant)

    timeouts = np.zeros_like(truth)
    n_censored = data.draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_censored):
        i = int(rng.integers(n))
        j = int(rng.integers(1, k))
        mask[i, j] = 0.0
        timeouts[i, j] = truth[i, j] * float(rng.uniform(0.5, 2.0))

    # The nonnegative clamp makes long trajectories chaotic: a one-ulp
    # difference between ``solve`` and ``inv`` flips whether a factor near
    # zero clamps, and the divergence then grows ~40x per iteration.  Cap
    # the compared trajectory in the clamped case -- every iteration's
    # algebra is still exercised, just not the chaotic amplification.
    if nonnegative:
        iterations = min(iterations, 5)
    config = ALSConfig(
        rank=rank,
        regularization=regularization,
        iterations=iterations,
        nonnegative=nonnegative,
        censored=censored,
        seed=seed % 17,
    )
    # The solver reads the mask as binary (any positive entry is observed);
    # the reference blends with it, so the reference always gets the 0/1 one.
    solver_mask = mask * rng.uniform(0.5, 3.0, mask.shape) if weighted_mask else mask

    result = censored_als(truth, solver_mask, timeouts, config)
    ref_completed, ref_q, ref_h, ref_trace = _reference_censored_als(
        truth, mask, timeouts, config
    )

    scale = float(np.abs(truth).max())
    assert _close(result.completed, ref_completed, scale)
    assert _close(result.query_factors, ref_q, scale)
    assert _close(result.hint_factors, ref_h, scale)
    assert _close(result.objective_trace, ref_trace, scale ** 2 * mask.sum())

    # Warm-start case: continue both solvers from the optimised factors.
    # ``grown_rows == 0`` covers the matrix (the solver skips the baseline
    # initialisation); otherwise the last rows arrived after the warm solve
    # and keep their baseline.
    warm = (result.query_factors[: n - grown_rows], result.hint_factors)
    warm_result = censored_als(
        truth, solver_mask, timeouts, config, warm_start=warm, iterations=3
    )
    ref_warm = _reference_censored_als(
        truth, mask, timeouts, config, warm_start=warm, iterations=3
    )
    assert _close(warm_result.completed, ref_warm[0], scale)
    assert _close(warm_result.query_factors, ref_warm[1], scale)
    assert _close(warm_result.hint_factors, ref_warm[2], scale)
    assert _close(warm_result.objective_trace, ref_warm[3], scale ** 2 * mask.sum())


def test_matches_reference_at_paper_shape():
    """CEB's 3133x49 at ~3% observed: a warm 5-iteration refresh, the solve
    that dominates an exploration step, agrees with the reference."""
    rng = np.random.default_rng(5)
    n, k = 3133, 49
    truth = rng.gamma(2.0, 1.0, (n, 5)) @ rng.gamma(2.0, 1.0, (k, 5)).T
    observed = rng.random((n, k)) < 0.03
    observed[:, 0] = True
    mask = observed.astype(float)
    timeouts = np.where(~observed & (rng.random((n, k)) < 0.15), truth * 0.5, 0.0)
    config = ALSConfig()
    warm = censored_als(truth, mask, timeouts, config, iterations=10).factors
    # A feedback batch lands between the two solves.
    fresh = ~observed & (rng.random((n, k)) < 0.002)
    mask[fresh] = 1.0
    timeouts[fresh] = 0.0

    result = censored_als(truth, mask, timeouts, config, warm_start=warm, iterations=5)
    ref = _reference_censored_als(
        truth, mask, timeouts, config, warm_start=warm, iterations=5
    )
    scale = float(np.abs(truth).max())
    assert _close(result.completed, ref[0], scale)
    assert _close(result.query_factors, ref[1], scale)
    assert _close(result.hint_factors, ref[2], scale)
    assert _close(result.objective_trace, ref[3], scale ** 2 * mask.sum())
