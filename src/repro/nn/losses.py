"""Loss functions, including the censored loss (paper Equation 8).

The censored loss only penalises a prediction for a timed-out observation
when the prediction falls *below* the timeout threshold: the model is wrong
for sure in that case, whereas any prediction at or above the threshold is
potentially correct and must not be punished.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import NeuralNetworkError
from .autograd import Tensor, squared_error_loss


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Standard mean squared error."""
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError(
            f"prediction shape {predictions.shape} does not match target shape "
            f"{targets.shape}"
        )
    return squared_error_loss(predictions, targets)


def censored_mse_loss(
    predictions: Tensor,
    targets: np.ndarray,
    thresholds: Optional[np.ndarray] = None,
) -> Tensor:
    """Censored MSE (Equation 8).

    Parameters
    ----------
    predictions:
        Model outputs, shape ``(batch,)``.
    targets:
        Observed latencies; for censored samples this is the timeout value.
    thresholds:
        Per-sample censoring thresholds ``tau``.  Samples with a threshold of
        0 (or None thresholds entirely) are treated as uncensored and always
        contribute.  For censored samples the squared error only counts when
        the prediction is below the threshold.
    """
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError(
            f"prediction shape {predictions.shape} does not match target shape "
            f"{targets.shape}"
        )
    if thresholds is None:
        return mse_loss(predictions, targets)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != targets.shape:
        raise NeuralNetworkError("threshold shape does not match target shape")

    censored = thresholds > 0
    # Indicator 1{y_hat < tau} for censored samples; uncensored samples always count.
    below = predictions.data < thresholds
    weights = np.where(censored, below.astype(float), 1.0)
    return squared_error_loss(predictions, targets, weights)
