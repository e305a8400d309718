"""Tests for the end-to-end DB-substrate workload builder."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import build_database_workload


def test_db_workload_shapes_and_positivity(db_workload):
    assert db_workload.true_latencies.shape == (
        db_workload.n_queries,
        db_workload.n_hints,
    )
    assert (db_workload.true_latencies > 0).all()
    assert np.isfinite(db_workload.true_latencies).all()


def test_db_workload_has_headroom(db_workload):
    assert db_workload.optimal_total <= db_workload.default_total
    assert db_workload.headroom >= 1.0


def test_db_workload_hint_diversity(db_workload):
    # At least some queries must have a non-default optimal hint, otherwise
    # the exploration problem would be trivial.
    best = db_workload.true_latencies.argmin(axis=1)
    assert (best != 0).any()


def test_db_workload_feature_store(db_workload):
    store = db_workload.feature_store()
    batch = store.batch([(0, 0), (1, 1)])
    assert batch.stacked.shape[0] == 2


def test_db_workload_reproducible():
    a = build_database_workload("toy", n_queries=5, n_hints=4, seed=9, max_relations=3)
    b = build_database_workload("toy", n_queries=5, n_hints=4, seed=9, max_relations=3)
    assert np.allclose(a.true_latencies, b.true_latencies)


def test_db_workload_validation():
    with pytest.raises(WorkloadError):
        build_database_workload("toy", n_queries=0)
    with pytest.raises(WorkloadError):
        build_database_workload("toy", n_queries=3, n_hints=1)
