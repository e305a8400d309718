"""Tests for tree convolution and dynamic pooling."""

import numpy as np
import pytest

from repro.errors import NeuralNetworkError
from repro.plans.featurize import NODE_FEATURE_DIM, pack_trees
from taped_tcnn import BinaryTreeConv, DynamicPooling, Tensor, TreeConvStack


def toy_tree(num_real_nodes=3, feature_dim=8, seed=0):
    rng = np.random.default_rng(seed)
    count = num_real_nodes + 1
    nodes = np.zeros((count, feature_dim))
    nodes[1:] = rng.normal(size=(num_real_nodes, feature_dim))
    left = np.zeros(count, dtype=np.int64)
    right = np.zeros(count, dtype=np.int64)
    if num_real_nodes >= 3:
        left[1], right[1] = 2, 3
    return nodes, left, right


def node_features(batch):
    """The node features of a packed batch, without the stacked children."""
    return batch.stacked[..., :NODE_FEATURE_DIM]


def test_tree_conv_output_shape_and_padding_invariant():
    batch = pack_trees([toy_tree(3), toy_tree(5, seed=1)])
    layer = BinaryTreeConv(8, 4, seed=0)
    out = layer(Tensor(node_features(batch)), batch.left, batch.right, batch.mask)
    assert out.shape == (2, batch.max_nodes, 4)
    # Padding rows (mask == 0) stay exactly zero.
    padded = batch.mask == 0
    assert np.allclose(out.data[padded], 0.0)


def test_tree_conv_uses_children():
    """Changing a child's features must change the parent's output."""
    nodes, left, right = toy_tree(3, seed=2)
    batch_a = pack_trees([(nodes, left, right)])
    changed = nodes.copy()
    changed[2] += 10.0  # left child of node 1
    batch_b = pack_trees([(changed, left, right)])
    layer = BinaryTreeConv(8, 4, seed=0)
    out_a = layer(Tensor(node_features(batch_a)), batch_a.left, batch_a.right, batch_a.mask)
    out_b = layer(Tensor(node_features(batch_b)), batch_b.left, batch_b.right, batch_b.mask)
    assert not np.allclose(out_a.data[0, 1], out_b.data[0, 1])


def test_tree_conv_gradients_flow_to_all_weights():
    batch = pack_trees([toy_tree(3)])
    layer = BinaryTreeConv(8, 4, seed=0)
    out = layer(Tensor(node_features(batch)), batch.left, batch.right, batch.mask)
    out.sum().backward()
    for param in layer.parameters():
        assert param.grad is not None


def test_tree_conv_validation():
    with pytest.raises(NeuralNetworkError):
        BinaryTreeConv(0, 4)
    layer = BinaryTreeConv(8, 4)
    with pytest.raises(NeuralNetworkError):
        layer(Tensor(np.ones((2, 8))), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))


def test_dynamic_pooling_takes_masked_max():
    batch = pack_trees([toy_tree(3)])
    pooled = DynamicPooling()(Tensor(node_features(batch)), batch.mask)
    expected = node_features(batch)[0, 1:4].max(axis=0)
    assert np.allclose(pooled.data[0], expected)


def test_tree_conv_stack_end_to_end():
    batch = pack_trees([toy_tree(3), toy_tree(4, seed=3)])
    stack = TreeConvStack(8, (8, 4), seed=0)
    pooled = stack(Tensor(node_features(batch)), batch.left, batch.right, batch.mask)
    assert pooled.shape == (2, 4)
    pooled.sum().backward()
    assert all(p.grad is not None for p in stack.parameters())


def test_tree_conv_stack_requires_channels():
    with pytest.raises(NeuralNetworkError):
        TreeConvStack(8, ())
