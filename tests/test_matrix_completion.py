"""Tests for the ALS / SVT / nuclear-norm completers (Figure 17 machinery)."""

import numpy as np
import pytest

from repro.config import ALSConfig
from repro.core import matrix_completion
from repro.core.matrix_completion import (
    ALSCompleter,
    NuclearNormCompleter,
    SVTCompleter,
    completion_mse,
)
from repro.errors import CompletionError


def low_rank_matrix(n=40, k=15, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.gamma(2.0, 1.0, (n, rank)) @ rng.gamma(2.0, 1.0, (k, rank)).T


def mask_for(shape, fill, seed=0):
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) < fill).astype(float)
    mask[:, 0] = 1.0
    return mask


@pytest.mark.parametrize(
    "completer, iterations",
    [
        (ALSCompleter(ALSConfig(rank=3, iterations=25)), {}),
        (SVTCompleter(), {"SVT_ITERATIONS": 120}),
        (NuclearNormCompleter(), {"SOFT_IMPUTE_ITERATIONS": 150}),
    ],
    ids=["als", "svt", "nuc"],
)
def test_completers_reconstruct_low_rank_matrices(completer, iterations, monkeypatch):
    # Fewer sweeps than Figure 17 runs: the claim holds well before them.
    for name, value in iterations.items():
        monkeypatch.setattr(matrix_completion, name, value)
    truth = low_rank_matrix()
    mask = mask_for(truth.shape, 0.6)
    observed = np.where(mask > 0, truth, 0.0)
    completed = completer.complete(observed, mask)
    assert completed.shape == truth.shape
    holdout = mask == 0
    baseline = completion_mse(truth, np.full_like(truth, truth[mask > 0].mean()), holdout)
    assert completion_mse(truth, completed, holdout) < baseline


@pytest.mark.parametrize(
    "completer",
    [ALSCompleter(), SVTCompleter(), NuclearNormCompleter()],
    ids=["als", "svt", "nuc"],
)
def test_completers_validate_inputs(completer):
    truth = low_rank_matrix()
    with pytest.raises(CompletionError):
        completer.complete(truth, np.zeros_like(truth))
    with pytest.raises(CompletionError):
        completer.complete(truth, np.ones((2, 2)))


def test_als_completer_uses_censored_bounds():
    truth = low_rank_matrix()
    mask = mask_for(truth.shape, 0.5)
    timeouts = np.zeros_like(truth)
    mask[4, 4] = 0.0
    timeouts[4, 4] = truth[4, 4] * 3
    completed = ALSCompleter(ALSConfig(rank=3, iterations=20)).complete_result(
        np.where(mask > 0, truth, 0.0), mask, timeouts
    ).completed
    assert completed[4, 4] >= timeouts[4, 4] - 1e-9


def test_svt_rejects_all_zero_observations():
    observed = np.zeros((5, 5))
    mask = np.ones((5, 5))
    with pytest.raises(CompletionError):
        SVTCompleter().complete(observed, mask)


def test_completion_outputs_are_nonnegative():
    truth = low_rank_matrix()
    mask = mask_for(truth.shape, 0.3, seed=4)
    observed = np.where(mask > 0, truth, 0.0)
    for completer in (SVTCompleter(), NuclearNormCompleter()):
        assert (completer.complete(observed, mask) >= 0).all()


def test_completion_mse_and_rmse():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    estimate = np.array([[1.0, 2.0], [3.0, 6.0]])
    assert completion_mse(truth, estimate) == pytest.approx(1.0)
    holdout = np.array([[False, False], [False, True]])
    assert completion_mse(truth, estimate, holdout) == pytest.approx(4.0)


def test_completion_mse_validation():
    truth = np.ones((2, 2))
    with pytest.raises(CompletionError):
        completion_mse(truth, np.ones((3, 3)))
    with pytest.raises(CompletionError):
        completion_mse(truth, truth, np.zeros((2, 2), dtype=bool))
    with pytest.raises(CompletionError):
        completion_mse(truth, truth, np.zeros((3, 3), dtype=bool))


def test_als_is_fastest_of_the_three_on_job_sized_matrices(monkeypatch):
    """The qualitative claim behind Figure 17: ALS has the least overhead."""
    import time

    # A shorter soft-impute than Figure 17's is a harder opponent for ALS.
    monkeypatch.setattr(matrix_completion, "SOFT_IMPUTE_ITERATIONS", 200)

    truth = low_rank_matrix(n=113, k=49, rank=5, seed=2)
    mask = mask_for(truth.shape, 0.2, seed=2)
    observed = np.where(mask > 0, truth, 0.0)
    timings = {}
    for name, completer in (
        ("als", ALSCompleter(ALSConfig(rank=5, iterations=15))),
        ("nuc", NuclearNormCompleter()),
    ):
        start = time.perf_counter()
        completer.complete(observed, mask)
        timings[name] = time.perf_counter() - start
    assert timings["als"] < timings["nuc"]
