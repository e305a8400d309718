"""Tests for plan nodes and operators."""

from collections import Counter

import pytest

from plan_nodes import join_node, scan_node
from repro.db.operators import JoinOperator, PlanNode, ScanOperator
from repro.errors import PlanError


def small_plan():
    left = scan_node(ScanOperator.SEQ_SCAN, "a", "t1", 100, 10)
    right = scan_node(ScanOperator.INDEX_SCAN, "b", "t2", 50, 5)
    return join_node(JoinOperator.HASH_JOIN, left, right, 80, 20)


def test_unknown_operator_rejected():
    with pytest.raises(PlanError):
        PlanNode(operator="sort")


def test_scan_node_requires_alias_and_table():
    with pytest.raises(PlanError):
        PlanNode(operator=ScanOperator.SEQ_SCAN.value)


def test_scan_node_must_be_leaf():
    child = scan_node(ScanOperator.SEQ_SCAN, "a", "t1")
    with pytest.raises(PlanError):
        PlanNode(
            operator=ScanOperator.SEQ_SCAN.value,
            alias="b",
            table="t2",
            children=[child],
        )


def test_join_node_requires_two_children():
    child = scan_node(ScanOperator.SEQ_SCAN, "a", "t1")
    with pytest.raises(PlanError):
        PlanNode(operator=JoinOperator.HASH_JOIN.value, children=[child])


def test_plan_classification_and_traversal():
    plan = small_plan()
    assert not plan.is_scan and all(child.is_scan for child in plan.children)
    assert len(list(plan.iter_nodes())) == 3
    assert plan.depth == 2
    assert len(plan.leaves()) == 2
    assert plan.aliases() == ("a", "b")


def test_operator_counts():
    counts = Counter(node.operator for node in small_plan().iter_nodes())
    assert counts["hash_join"] == 1
    assert counts["seq_scan"] == 1
    assert counts["index_scan"] == 1


def test_to_text_mentions_tables_and_operators():
    text = small_plan().to_text()
    assert "hash_join" in text
    assert "t1 a" in text
    assert "t2 b" in text


def test_signature_distinguishes_structure():
    a = small_plan()
    left = scan_node(ScanOperator.SEQ_SCAN, "a", "t1")
    right = scan_node(ScanOperator.INDEX_SCAN, "b", "t2")
    b = join_node(JoinOperator.MERGE_JOIN, left, right)
    assert a.signature() != b.signature()
    assert a.signature() == small_plan().signature()
