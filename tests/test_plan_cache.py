"""Tests for the online plan cache and its no-regression guarantee."""

import numpy as np
import pytest

from repro.core.plan_cache import PlanCache
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import ExplorationError


def make_matrix():
    matrix = WorkloadMatrix(3, 4)
    # Query 0: default 10s, a verified better hint at 4s.
    matrix.observe(0, 0, 10.0)
    matrix.observe(0, 2, 4.0)
    # Query 1: only the default observed.
    matrix.observe(1, 0, 5.0)
    # Query 2: a worse alternative observed.
    matrix.observe(2, 0, 2.0)
    matrix.observe(2, 3, 6.0)
    return matrix


def test_lookup_returns_verified_better_plan():
    cache = PlanCache(make_matrix())
    decision = cache.lookup(0)
    assert decision.hint == 2
    assert not decision.used_default
    assert decision.expected_latency == pytest.approx(4.0)


def test_lookup_falls_back_to_default_when_nothing_better():
    cache = PlanCache(make_matrix())
    assert cache.lookup(1).used_default
    assert cache.lookup(1).hint == 0
    assert cache.lookup(2).used_default
    assert cache.lookup(2).hint == 0


def test_lookup_all_and_hint_map():
    cache = PlanCache(make_matrix())
    decisions = cache.lookup_all()
    assert len(decisions) == 3
    assert {d.query: d.hint for d in decisions} == {0: 2, 1: 0, 2: 0}


def test_no_regression_against_ground_truth():
    truth = np.array(
        [
            [10.0, 20.0, 4.0, 30.0],
            [5.0, 6.0, 7.0, 8.0],
            [2.0, 9.0, 9.0, 6.0],
        ]
    )
    cache = PlanCache(make_matrix())
    assert cache.verify_no_regression(truth)


def test_no_regression_bound_is_exact():
    """Observations rank hint 1 faster; the truth has it 1.4x slower."""
    matrix = WorkloadMatrix(1, 2)
    matrix.observe(0, 0, 10.0)
    matrix.observe(0, 1, 5.0)
    cache = PlanCache(matrix)
    assert cache.lookup(0).hint == 1
    assert not cache.verify_no_regression(np.array([[10.0, 14.0]]))
    assert cache.verify_no_regression(np.array([[10.0, 10.0]]))


def test_verify_no_regression_shape_check():
    cache = PlanCache(make_matrix())
    with pytest.raises(ExplorationError):
        cache.verify_no_regression(np.ones((2, 2)))


def test_unobserved_query_served_with_default():
    matrix = WorkloadMatrix(1, 3)
    cache = PlanCache(matrix)
    decision = cache.lookup(0)
    assert decision.used_default
    assert decision.hint == 0
    assert decision.expected_latency == float("inf")
