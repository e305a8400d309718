"""Tests for the hint-aware plan enumerator."""

import pytest

from repro.db.datagen import make_catalog
from repro.db.hints import HintSet, all_hint_sets, default_hint_set
from repro.db import optimizer
from repro.db.optimizer import PlanEnumerator
from repro.db.query import QueryGenerator


@pytest.fixture(scope="module")
def setup():
    catalog = make_catalog("toy", seed=0)
    enumerator = PlanEnumerator(catalog)
    queries = QueryGenerator(catalog, seed=3, max_relations=5).generate_many(10)
    return catalog, enumerator, queries


def test_plan_covers_all_relations(setup):
    _, enumerator, queries = setup
    for query in queries:
        plan = enumerator.optimize(query, default_hint_set())
        assert sorted(plan.aliases()) == sorted(query.aliases)


def test_plan_is_binary_tree_of_known_operators(setup):
    _, enumerator, queries = setup
    plan = enumerator.optimize(queries[0], default_hint_set())
    for node in plan.iter_nodes():
        assert node.is_scan or len(node.children) == 2


def test_plans_are_annotated_with_costs_and_truth(setup):
    _, enumerator, queries = setup
    plan = enumerator.optimize(queries[0], default_hint_set())
    for node in plan.iter_nodes():
        assert node.estimated_cost > 0
        assert node.estimated_rows >= 1
        assert node.true_cost > 0
        assert node.true_rows >= 1


def test_hint_sets_restrict_operators(setup):
    _, enumerator, queries = setup
    only_hash = HintSet(enable_mergejoin=False, enable_nestloop=False)
    only_nl = HintSet(enable_hashjoin=False, enable_mergejoin=False)
    for query in queries[:5]:
        plan_hash = enumerator.optimize(query, only_hash)
        plan_nl = enumerator.optimize(query, only_nl)
        for node in plan_hash.iter_nodes():
            if not node.is_scan:
                assert node.operator == "hash_join"
        for node in plan_nl.iter_nodes():
            if not node.is_scan:
                assert node.operator == "nested_loop"


def test_scan_hints_respected_when_index_exists(setup):
    catalog, enumerator, queries = setup
    seq_only = HintSet(enable_indexscan=False, enable_indexonlyscan=False)
    for query in queries[:5]:
        plan = enumerator.optimize(query, seq_only)
        for leaf in plan.leaves():
            assert leaf.operator == "seq_scan"


def test_default_plan_is_deterministic(setup):
    _, enumerator, queries = setup
    a = enumerator.optimize(queries[0], default_hint_set())
    b = enumerator.optimize(queries[0], default_hint_set())
    assert a.signature() == b.signature()


def test_different_hints_can_change_the_plan(setup):
    _, enumerator, queries = setup
    signatures = set()
    for hint in all_hint_sets()[:10]:
        plan = enumerator.optimize(queries[2], hint)
        signatures.add(plan.signature())
    assert len(signatures) > 1, "hints should produce plan diversity"


def test_default_hint_has_lowest_estimated_cost_among_restrictions(setup):
    # The default hint set is a superset of every other hint set's search
    # space, so its best estimated cost can never be worse.
    _, enumerator, queries = setup
    query = queries[1]
    default_cost = sum(
        n.estimated_cost for n in enumerator.optimize(query, default_hint_set()).iter_nodes()
    )
    for hint in all_hint_sets()[1:15]:
        restricted_cost = sum(
            n.estimated_cost for n in enumerator.optimize(query, hint).iter_nodes()
        )
        assert default_cost <= restricted_cost * (1 + 1e-9)


def test_greedy_fallback_for_many_relations(setup, monkeypatch):
    catalog, _, _ = setup
    monkeypatch.setattr(optimizer, "DP_THRESHOLD", 3)
    enumerator = PlanEnumerator(catalog)
    queries = QueryGenerator(catalog, seed=8, max_relations=6).generate_many(30)
    query = next(q for q in queries if q.num_relations > optimizer.DP_THRESHOLD)
    plan = enumerator.optimize(query, default_hint_set())
    assert sorted(plan.aliases()) == sorted(query.aliases)


def test_explain_returns_text(setup):
    _, enumerator, queries = setup
    text = enumerator.explain(queries[0])
    assert "scan" in text
