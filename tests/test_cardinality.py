"""Tests for the cardinality estimator (true and estimated models)."""

import pytest

from repro.db.cardinality import CardinalityEstimator
from repro.db.datagen import make_catalog
from repro.db.query import QueryGenerator


@pytest.fixture(scope="module")
def setup():
    catalog = make_catalog("toy", seed=0)
    estimator = CardinalityEstimator(catalog, seed=0)
    queries = QueryGenerator(catalog, seed=2, max_relations=4).generate_many(8)
    return catalog, estimator, queries


def test_base_rows_positive_and_bounded(setup):
    catalog, estimator, queries = setup
    for query in queries:
        for alias in query.aliases:
            rows = estimator.base_rows(query, alias)
            est = estimator.estimated_base_rows(query, alias)
            assert rows >= 1.0
            assert est >= 1.0
            table = catalog.table(query.table_for(alias))
            assert est <= table.row_count + 1


def test_estimated_base_rows_have_no_hidden_factor(setup):
    catalog, estimator, queries = setup
    query = queries[0]
    alias = query.aliases[0]
    table = catalog.table(query.table_for(alias))
    expected = max(1.0, table.row_count * query.filter_selectivity(alias))
    assert estimator.estimated_base_rows(query, alias) == pytest.approx(expected)


def test_true_base_rows_always_carry_the_hidden_factor(setup):
    # The true model's correlation factors cannot be switched off: every scan's
    # true rows differ from the optimizer's estimate by its hidden factor.
    _, estimator, queries = setup
    ratios = []
    for query in queries:
        for alias in query.aliases:
            estimated = estimator.estimated_base_rows(query, alias)
            hidden = estimator._hidden_factor(query, frozenset([alias]))
            if estimated * hidden >= 1.0:
                assert estimator.base_rows(query, alias) == pytest.approx(estimated * hidden)
                ratios.append(hidden)
    assert ratios and all(ratio != pytest.approx(1.0) for ratio in ratios)


def test_join_rows_deterministic(setup):
    _, estimator, queries = setup
    query = next(q for q in queries if q.num_relations >= 2)
    left = frozenset(query.aliases[:1])
    right = frozenset(query.aliases[1:2])
    a = estimator.join_rows(query, left, right)
    b = estimator.join_rows(query, left, right)
    assert a == b
    assert a >= 1.0


def estimation_error(estimator, query, aliases):
    """True over estimated rows of a sub-expression."""
    true_rows = estimator.subset_rows(query, aliases, true=True)
    return true_rows / max(1.0, estimator.subset_rows(query, aliases, true=False))


def test_estimation_error_compounds_with_joins(setup):
    _, estimator, queries = setup
    # Errors should exist for at least some multi-join sub-expressions.
    errors = []
    for query in queries:
        if query.num_relations < 3:
            continue
        full = frozenset(query.aliases)
        errors.append(abs(1.0 - estimation_error(estimator, query, full)))
    assert errors, "need at least one 3-way join query in the fixture"
    assert max(errors) > 0.01


def test_subset_rows_cached(setup):
    _, estimator, queries = setup
    query = queries[0]
    subset = frozenset(query.aliases)
    first = estimator.subset_rows(query, subset)
    second = estimator.subset_rows(query, subset)
    assert first == second
