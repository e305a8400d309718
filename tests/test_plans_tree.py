"""Tests for plan binarisation and flattening."""

import numpy as np
import pytest

from plan_nodes import join_node, scan_node
from repro.db.operators import JoinOperator, ScanOperator
from repro.plans.tree import (
    OPERATOR_INDEX,
    binarize_plan,
    node_feature_vector,
    plan_to_arrays,
)


def sample_plan():
    left = scan_node(ScanOperator.SEQ_SCAN, "a", "t1", estimated_rows=100, estimated_cost=50)
    right = scan_node(ScanOperator.INDEX_SCAN, "b", "t2", estimated_rows=10, estimated_cost=5)
    middle = join_node(JoinOperator.HASH_JOIN, left, right, estimated_rows=60, estimated_cost=20)
    far = scan_node(ScanOperator.SEQ_SCAN, "c", "t3", estimated_rows=5, estimated_cost=2)
    return join_node(JoinOperator.NESTED_LOOP, middle, far, estimated_rows=30, estimated_cost=8)


def test_binarize_returns_an_equivalent_copy():
    plan = sample_plan()
    copy = binarize_plan(plan)
    assert copy is not plan
    assert copy.signature() == plan.signature()


def test_node_feature_vector_layout():
    node = scan_node(ScanOperator.SEQ_SCAN, "a", "t1", estimated_rows=99, estimated_cost=9)
    features = node_feature_vector(node)
    assert features.shape == (len(OPERATOR_INDEX) + 2,)
    assert features[OPERATOR_INDEX["seq_scan"]] == 1.0
    assert features.sum() == pytest.approx(1.0 + np.log1p(9) + np.log1p(99))


def test_plan_to_arrays_structure():
    nodes, left, right = plan_to_arrays(sample_plan())
    # 5 real nodes plus the reserved null node.
    assert nodes.shape[0] == 6
    assert left.shape == right.shape == (6,)
    # Null node is all zeros and points at itself.
    assert np.allclose(nodes[0], 0.0)
    assert left[0] == 0 and right[0] == 0
    # The root (node 1) has two children; leaves point at the null node.
    assert left[1] != 0 and right[1] != 0
    leaf_positions = [i for i in range(1, 6) if left[i] == 0 and right[i] == 0]
    assert len(leaf_positions) == 3


def test_plan_to_arrays_children_are_consistent():
    plan = sample_plan()
    nodes, left, right = plan_to_arrays(plan)
    # Node 1 is the root in pre-order; its left child's operator one-hot must
    # match the root's first child.
    root_left = int(left[1])
    first_child_operator = plan.children[0].operator
    assert nodes[root_left, OPERATOR_INDEX[first_child_operator]] == 1.0


def test_single_scan_plan():
    plan = scan_node(ScanOperator.SEQ_SCAN, "a", "t1", estimated_rows=10, estimated_cost=1)
    nodes, left, right = plan_to_arrays(plan)
    assert nodes.shape[0] == 2
    assert left[1] == 0 and right[1] == 0
