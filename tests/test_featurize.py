"""Tests for plan feature stores (real and synthetic)."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plans.featurize import (
    NODE_FEATURE_DIM,
    PlanFeatureStore,
    PlanFeaturizer,
    SyntheticPlanFeatureStore,
    TreeBatch,
    pack_trees,
)


def test_pack_trees_pads_and_masks():
    small = (np.ones((3, NODE_FEATURE_DIM)), np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    big = (np.ones((6, NODE_FEATURE_DIM)), np.zeros(6, dtype=int), np.zeros(6, dtype=int))
    batch = pack_trees([small, big])
    assert isinstance(batch, TreeBatch)
    assert batch.stacked.shape[0] == 2
    assert batch.max_nodes == 6
    assert batch.mask[0, 1:3].sum() == 2
    assert batch.mask[0, 3:].sum() == 0
    assert batch.mask[1, 1:6].sum() == 5
    # Null node (position 0) is never marked as real.
    assert batch.mask[:, 0].sum() == 0


def test_pack_trees_rejects_empty_input():
    with pytest.raises(PlanError):
        pack_trees([])


def test_plan_feature_store_caches_and_batches(db_workload):
    store = PlanFeatureStore(
        PlanFeaturizer(db_workload.enumerator),
        db_workload.queries,
        db_workload.hint_sets,
    )
    assert store.shape == (db_workload.n_queries, db_workload.n_hints)
    first = store.tree(0, 0)
    again = store.tree(0, 0)
    assert first is again  # cached
    batch = store.batch([(0, 0), (1, 1), (2, 0)])
    assert batch.stacked.shape[0] == 3
    assert batch.nodes.shape[2] == NODE_FEATURE_DIM


def test_plan_feature_store_differs_across_hints(db_workload):
    store = db_workload.feature_store()
    nodes_default, _, _ = store.tree(1, 0)
    found_difference = False
    for hint_index in range(1, db_workload.n_hints):
        nodes_other, _, _ = store.tree(1, hint_index)
        if nodes_other.shape != nodes_default.shape or not np.allclose(
            nodes_other, nodes_default
        ):
            found_difference = True
            break
    assert found_difference


def test_plan_feature_store_add_query(db_workload):
    store = db_workload.feature_store()
    new_index = store.add_query(db_workload.queries[0])
    assert new_index == db_workload.n_queries
    assert store.tree(new_index, 0)[0].shape[1] == NODE_FEATURE_DIM


def test_synthetic_store_shapes_and_determinism(tiny_workload):
    store = tiny_workload.feature_store()
    assert store.shape == (tiny_workload.n_queries, tiny_workload.n_hints)
    a = store.tree(3, 7)
    b = store.tree(3, 7)
    assert a is b
    fresh = tiny_workload.feature_store()
    c = fresh.tree(3, 7)
    assert np.allclose(a[0], c[0])


def test_synthetic_store_features_correlate_with_latency(tiny_workload):
    store = tiny_workload.feature_store(noise=0.01)
    latencies = []
    signals = []
    for i in range(0, tiny_workload.n_queries, 3):
        for j in range(0, tiny_workload.n_hints, 7):
            nodes, _, _ = store.tree(i, j)
            signals.append(nodes[1:, -2].mean())
            latencies.append(tiny_workload.true_latencies[i, j])
    corr = np.corrcoef(signals, np.log1p(latencies))[0, 1]
    assert corr > 0.4


def test_synthetic_store_add_query_and_validation():
    store = SyntheticPlanFeatureStore(np.ones((3, 2)), np.ones((4, 2)))
    index = store.add_query()
    assert index == 3
    assert store.shape == (4, 4)
    with pytest.raises(PlanError):
        store.add_query(np.ones(5))
    with pytest.raises(PlanError):
        SyntheticPlanFeatureStore(np.ones((3, 2)), np.ones((4, 3)))
    with pytest.raises(PlanError):
        SyntheticPlanFeatureStore(np.ones(3), np.ones((4, 3)))


def test_synthetic_store_batch(tiny_workload):
    store = tiny_workload.feature_store()
    batch = store.batch([(0, 0), (1, 2)])
    assert batch.stacked.shape[0] == 2
    assert batch.nodes.shape[2] == NODE_FEATURE_DIM


def _toy_store(n=4, k=3, seed=0):
    import numpy as np

    from repro.plans.featurize import SyntheticPlanFeatureStore

    rng = np.random.default_rng(seed)
    return SyntheticPlanFeatureStore(rng.random((n, 4)), rng.random((k, 4)), seed=seed)


def test_tree_batch_take_matches_repacking():
    import numpy as np

    store = _toy_store()
    cells = [(q, h) for q in range(4) for h in range(3)]
    packed = store.batch(cells)
    subset_idx = np.array([1, 4, 7])
    sliced = packed.take(subset_idx)
    repacked = store.batch([cells[i] for i in subset_idx])
    assert sliced.stacked.shape[0] == 3
    # Same features; the pre-packed slice may be wider but the extra
    # columns are padding (mask 0, null children).
    width = repacked.max_nodes
    assert np.array_equal(sliced.nodes[:, :width], repacked.nodes)
    assert np.array_equal(sliced.mask[:, :width], repacked.mask)
    assert (sliced.mask[:, width:] == 0).all()


def test_full_batch_is_cached_and_invalidated_on_growth():
    store = _toy_store()
    first = store.full_batch()
    assert store.full_batch() is first
    assert first.stacked.shape[0] == 4 * 3
    store.add_query()
    grown = store.full_batch()
    assert grown is not first
    assert grown.stacked.shape[0] == 5 * 3


def test_plan_feature_store_full_batch(db_workload):
    from repro.plans.featurize import PlanFeatureStore, PlanFeaturizer

    store = PlanFeatureStore(
        PlanFeaturizer(db_workload.enumerator),
        db_workload.queries[:3],
        db_workload.hint_sets[:2],
    )
    full = store.full_batch()
    assert full.stacked.shape[0] == 6
    assert store.full_batch() is full
