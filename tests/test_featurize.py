"""Tests for the synthetic plan feature store and tree packing."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plans.featurize import (
    NODE_FEATURE_DIM,
    NODES_PER_PLAN,
    NUM_OPERATORS,
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


def test_synthetic_store_shapes_and_determinism(tiny_workload):
    store = tiny_workload.feature_store()
    assert store.shape == (tiny_workload.n_queries, tiny_workload.n_hints)
    a = store._derive(3, 7)
    fresh = tiny_workload.feature_store()
    for again in (store._derive(3, 7), fresh._derive(3, 7)):
        for array, same in zip(a, again):
            assert np.array_equal(array, same)
    assert np.array_equal(store.batch([(3, 7)]).stacked, fresh.batch([(3, 7)]).stacked)


def test_synthetic_store_features_correlate_with_latency(tiny_workload):
    store = tiny_workload.feature_store(noise=0.01)
    latencies = []
    signals = []
    for i in range(0, tiny_workload.n_queries, 3):
        for j in range(0, tiny_workload.n_hints, 7):
            nodes, _, _ = store._derive(i, j)
            signals.append(nodes[1:, -2].mean())
            latencies.append(tiny_workload.true_latencies[i, j])
    corr = np.corrcoef(signals, np.log1p(latencies))[0, 1]
    assert corr > 0.4


def test_synthetic_store_refuses_factors_that_do_not_fit():
    assert SyntheticPlanFeatureStore(np.ones((3, 2)), np.ones((4, 2))).shape == (3, 4)
    with pytest.raises(PlanError):
        SyntheticPlanFeatureStore(np.ones((3, 2)), np.ones((4, 3)))
    with pytest.raises(PlanError):
        SyntheticPlanFeatureStore(np.ones(3), np.ones((4, 3)))


def test_synthetic_store_batch(tiny_workload):
    store = tiny_workload.feature_store()
    batch = store.batch([(0, 0), (1, 2)])
    assert batch.stacked.shape[0] == 2
    assert batch.stacked.shape[2] == 3 * NODE_FEATURE_DIM


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
    nodes = slice(None, NODE_FEATURE_DIM)
    assert np.array_equal(sliced.stacked[:, :width, nodes], repacked.stacked[..., nodes])
    assert np.array_equal(sliced.mask[:, :width], repacked.mask)
    assert (sliced.mask[:, width:] == 0).all()


def test_full_batch_is_packed_once():
    store = _toy_store()
    with mock.patch.object(store, "batch", wraps=store.batch) as batch:
        first = store.full_batch()
        assert store.full_batch() is first
    assert batch.call_count == 1
    assert first.stacked.shape[0] == 4 * 3


def test_the_job_pack_is_pinned():
    # Every byte of the plan space the TCNN trains on at JOB shape, seed 0.
    # The operator count and ``_derive``'s draws both feed it.
    import hashlib

    from repro.workloads import JOB_SPEC, generate_workload

    batch = generate_workload(JOB_SPEC, seed=0).feature_store().full_batch()
    digest = hashlib.sha256()
    for array in (batch.stacked, batch.left, batch.right, batch.mask):
        digest.update(array.tobytes())
    assert batch.stacked.shape == (113 * 49, 8, 3 * NODE_FEATURE_DIM)
    assert digest.hexdigest() == (
        "222da175b9968ff6b3b25d5655d8de4eba373c20919f92fd2f147fb0d85b2c07"
    )


def test_node_features_are_the_operator_one_hot_and_two_numbers():
    assert NUM_OPERATORS == 6
    assert NODE_FEATURE_DIM == NUM_OPERATORS + 2 == 8


@pytest.mark.parametrize("cell", [(0, 0), (0, 2), (2, 0), (3, 1)], ids=str)
def test_synthetic_plan_is_a_left_deep_chain_of_operators(cell):
    nodes, left, right = _toy_store()._derive(*cell)
    count = NODES_PER_PLAN + 1
    assert nodes.shape == (count, NODE_FEATURE_DIM)
    # Row 0 is the null node every missing child points at.
    assert not nodes[0].any()
    assert left.tolist() == [0] + list(range(2, count)) + [0]
    assert not right.any()
    one_hot = nodes[1:, :NUM_OPERATORS]
    assert set(np.unique(one_hot)) <= {0.0, 1.0}
    assert (one_hot.sum(axis=1) == 1).all()


def test_synthetic_plans_differ_across_hints_queries_and_seeds():
    store = _toy_store()
    base = store._derive(1, 1)[0]
    assert not np.array_equal(base, store._derive(1, 2)[0])
    assert not np.array_equal(base, store._derive(2, 1)[0])
    assert not np.array_equal(base, _toy_store(seed=1)._derive(1, 1)[0])


def test_noise_free_numeric_features_are_the_latent_signal():
    rng = np.random.default_rng(4)
    queries, hints = rng.random((3, 2)), rng.random((5, 2))
    store = SyntheticPlanFeatureStore(queries, hints, noise=0.0)
    nodes, _, _ = store._derive(2, 4)
    signal = np.log1p(abs(queries[2] @ hints[4]))
    scale = np.log1p(np.linalg.norm(queries[2]) * np.linalg.norm(hints[4]))
    assert np.allclose(nodes[1:, -2], signal)
    assert np.allclose(nodes[1:, -1], scale)


def test_full_batch_is_the_plan_space_in_row_major_order():
    store = _toy_store(n=3, k=2)
    full = store.full_batch()
    for index, (q, h) in enumerate([(q, h) for q in range(3) for h in range(2)]):
        nodes, left, right = store._derive(q, h)
        assert np.array_equal(full.stacked[index, :, :NODE_FEATURE_DIM], nodes)
        assert np.array_equal(full.left[index], left)
        assert np.array_equal(full.right[index], right)


def test_stacked_rows_carry_each_nodes_children():
    batch = _toy_store().batch([(0, 1), (3, 2)])
    dim = NODE_FEATURE_DIM
    for b in range(2):
        nodes = batch.stacked[b, :, :dim]
        assert np.array_equal(batch.stacked[b, :, dim:2 * dim], nodes[batch.left[b]])
        assert np.array_equal(batch.stacked[b, :, 2 * dim:], nodes[batch.right[b]])


def test_pack_trees_streams_a_generator_when_told_its_shape():
    store = _toy_store()
    cells = [(0, 0), (1, 2), (3, 1)]
    trees = [store._derive(q, h) for q, h in cells]
    listed = pack_trees(trees)
    streamed = pack_trees(iter(trees), len(trees), NODES_PER_PLAN + 1)
    for field in ("stacked", "left", "right", "mask"):
        assert np.array_equal(getattr(listed, field), getattr(streamed, field)), field


def test_pack_trees_of_ragged_trees_pads_with_the_null_node():
    # A real-plan store hands in trees of unequal size: the short one's
    # padding rows must be masked and point at the null node.
    batch = pack_trees([_chain(2), _chain(5)])
    assert batch.max_nodes == 6
    assert batch.mask[0].tolist() == [0, 1, 1, 0, 0, 0]
    assert not batch.stacked[0, 3:].any()
    assert not batch.left[0, 3:].any() and not batch.right[0, 3:].any()


def _chain(size):
    """A left-deep tree of ``size`` operator nodes behind the null node."""
    nodes = np.zeros((size + 1, NODE_FEATURE_DIM))
    nodes[1:, 0] = 1.0
    nodes[1:, -1] = np.arange(1, size + 1)
    left = np.array([0] + list(range(2, size + 1)) + [0])
    return nodes, left, np.zeros(size + 1, dtype=int)
