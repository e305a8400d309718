"""Tests for expected-improvement scoring (Equation 6)."""

import numpy as np
import pytest

from repro.core.scoring import best_unexplored
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def matrix_with_defaults(values):
    values = np.asarray(values, dtype=float)
    matrix = WorkloadMatrix(values.shape[0], values.shape[1])
    for i in range(values.shape[0]):
        matrix.observe(i, 0, float(values[i, 0]))
    return matrix


def test_improvement_ratio_formula():
    matrix = matrix_with_defaults([[10.0, 0, 0]])
    predicted = np.array([[10.0, 2.0, 4.0]])
    ratios = best_unexplored(matrix, predicted)[1]
    assert ratios[0] == pytest.approx((10.0 - 2.0) / 2.0)


def test_improvement_ratio_negative_when_prediction_worse():
    matrix = matrix_with_defaults([[1.0, 0, 0]])
    predicted = np.array([[5.0, 6.0, 7.0]])
    ratios = best_unexplored(matrix, predicted)[1]
    assert ratios[0] < 0


def test_unobserved_rows_get_infinite_ratio():
    matrix = WorkloadMatrix(1, 3)
    predicted = np.array([[1.0, 2.0, 3.0]])
    assert np.isinf(best_unexplored(matrix, predicted)[1][0])


def test_ratio_shape_validation():
    matrix = matrix_with_defaults([[1.0, 0]])
    with pytest.raises(ExplorationError):
        best_unexplored(matrix, np.ones((2, 2)))


def test_predicted_best_hints_restricts_to_unknown():
    matrix = matrix_with_defaults([[5.0, 0.0, 0.0]])
    predicted = np.array([[0.1, 3.0, 2.0]])
    best, _ = best_unexplored(matrix, predicted)
    assert best.tolist() == [2]


def test_exhausted_row_gets_no_ratio():
    matrix = WorkloadMatrix(1, 2)
    matrix.observe(0, 0, 1.0)
    matrix.observe(0, 1, 2.0)
    predicted = np.array([[1.0, 2.0]])
    assert best_unexplored(matrix, predicted)[1].tolist() == [-np.inf]

