"""Tests for queries and the query generator."""

import pytest

from repro.db.datagen import make_catalog
from repro.db.query import JoinEdge, Predicate, Query, QueryGenerator
from repro.errors import QueryError


def simple_query(is_etl=False):
    return Query(
        name="q",
        relations={"a": "t1", "b": "t2"},
        joins=[JoinEdge("a", "id", "b", "id")],
        predicates=[Predicate("a", "c1", "=", 0.1)],
        is_etl=is_etl,
    )


def is_connected(query):
    """True when the join graph connects all relations."""
    adjacency = {alias: set() for alias in query.aliases}
    for edge in query.joins:
        adjacency[edge.left_alias].add(edge.right_alias)
        adjacency[edge.right_alias].add(edge.left_alias)
    seen, frontier = {query.aliases[0]}, [query.aliases[0]]
    while frontier:
        for neighbour in adjacency[frontier.pop()] - seen:
            seen.add(neighbour)
            frontier.append(neighbour)
    return len(seen) == query.num_relations


def test_query_requires_relations():
    with pytest.raises(QueryError):
        Query(name="empty", relations={})


def test_join_must_reference_known_aliases():
    with pytest.raises(QueryError):
        Query(
            name="bad",
            relations={"a": "t1"},
            joins=[JoinEdge("a", "id", "z", "id")],
        )


def test_predicate_must_reference_known_alias():
    with pytest.raises(QueryError):
        Query(
            name="bad",
            relations={"a": "t1"},
            predicates=[Predicate("z", "c1", "=", 0.1)],
        )


def test_predicate_selectivity_bounds():
    with pytest.raises(QueryError):
        Predicate("a", "c", "=", 0.0)
    with pytest.raises(QueryError):
        Predicate("a", "c", "=", 1.5)


def test_join_edge_other_and_involves():
    edge = JoinEdge("a", "id", "b", "id")
    assert {edge.left_alias, edge.right_alias} == {"a", "b"}
    assert edge.other("a") == "b"
    assert edge.other("b") == "a"
    with pytest.raises(QueryError):
        edge.other("c")


def test_query_structure_helpers():
    query = simple_query()
    assert query.num_relations == 2
    assert query.aliases == ["a", "b"]
    assert query.table_for("a") == "t1"
    assert query.predicates_for("a")[0].column == "c1"
    assert query.predicates_for("b") == []
    assert query.filter_selectivity("a") == pytest.approx(0.1)
    assert query.filter_selectivity("b") == pytest.approx(1.0)
    assert is_connected(query)


def test_joins_between_identifies_crossing_edges():
    query = simple_query()
    edges = query.joins_between(["a"], ["b"])
    assert len(edges) == 1
    assert query.joins_between(["a"], ["a"]) == []


def test_to_sql_contains_relations_and_conditions():
    sql = simple_query().to_sql()
    assert "t1 AS a" in sql and "t2 AS b" in sql
    assert "a.id = b.id" in sql
    assert "a.c1 = ?" in sql


def test_etl_query_rendering_and_flag():
    sql = simple_query(is_etl=True).to_sql()
    assert "COPY" in sql
    assert simple_query(is_etl=True).signature() != simple_query().signature()


def test_signature_is_stable_and_hashable():
    assert simple_query().signature() == simple_query().signature()
    hash(simple_query().signature())


def test_generator_produces_connected_queries():
    catalog = make_catalog("toy", seed=0)
    generator = QueryGenerator(catalog, seed=1, max_relations=5)
    queries = generator.generate_many(20)
    assert len(queries) == 20
    for query in queries:
        assert 2 <= query.num_relations <= 5
        assert is_connected(query)
        for alias, table in query.relations.items():
            assert table in catalog.table_names()


def test_generator_is_reproducible():
    catalog = make_catalog("toy", seed=0)
    a = QueryGenerator(catalog, seed=9).generate_many(5)
    b = QueryGenerator(catalog, seed=9).generate_many(5)
    assert [q.signature() for q in a] == [q.signature() for q in b]


def test_generator_rejects_bad_relation_range():
    catalog = make_catalog("toy", seed=0)
    with pytest.raises(QueryError):
        QueryGenerator(catalog, max_relations=1)
