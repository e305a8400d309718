"""Tests for the MSE and censored losses (paper Equation 8)."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from taped_tcnn import censored_mse_loss, mse_loss, parameter


def test_mse_loss_value_and_gradient():
    predictions = parameter(np.array([1.0, 2.0, 3.0]))
    loss = mse_loss(predictions, np.array([1.0, 2.0, 5.0]))
    assert loss.item() == pytest.approx(4.0 / 3.0)
    loss.backward()
    assert np.allclose(predictions.grad, [0.0, 0.0, 2 * (3.0 - 5.0) / 3.0])


def test_mse_loss_shape_validation():
    with pytest.raises(NeuralNetworkError):
        mse_loss(parameter(np.ones(3)), np.ones(4))


def test_censored_loss_without_thresholds_is_mse():
    predictions = parameter(np.array([1.0, 4.0]))
    targets = np.array([2.0, 2.0])
    assert censored_mse_loss(predictions, targets).item() == pytest.approx(
        mse_loss(parameter(np.array([1.0, 4.0])), targets).item()
    )


def test_censored_loss_ignores_predictions_above_threshold():
    # Sample 0: censored at 5, prediction 7 (>= threshold) -> no penalty.
    # Sample 1: censored at 5, prediction 2 (< threshold)  -> penalised.
    predictions = parameter(np.array([7.0, 2.0]))
    targets = np.array([5.0, 5.0])
    thresholds = np.array([5.0, 5.0])
    loss = censored_mse_loss(predictions, targets, thresholds)
    assert loss.item() == pytest.approx(((2.0 - 5.0) ** 2) / 2.0)
    loss.backward()
    assert predictions.grad[0] == pytest.approx(0.0)
    assert predictions.grad[1] != 0.0


def test_censored_loss_mixes_censored_and_uncensored_samples():
    predictions = parameter(np.array([1.0, 10.0, 3.0]))
    targets = np.array([2.0, 6.0, 3.0])
    thresholds = np.array([0.0, 6.0, 0.0])  # only the middle sample is censored
    loss = censored_mse_loss(predictions, targets, thresholds)
    # Sample 0 contributes (1-2)^2, sample 1 is above its threshold (no
    # penalty), sample 2 contributes 0.
    assert loss.item() == pytest.approx(1.0 / 3.0)


def test_censored_loss_validation():
    with pytest.raises(NeuralNetworkError):
        censored_mse_loss(parameter(np.ones(2)), np.ones(3))
    with pytest.raises(NeuralNetworkError):
        censored_mse_loss(parameter(np.ones(2)), np.ones(2), np.ones(3))
