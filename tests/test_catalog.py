"""Tests for the schema catalog."""

import pytest

from repro.db.catalog import Catalog, Column, Table
from repro.errors import CatalogError


def make_table(name="t", rows=1000, indexed=True):
    table = Table(name=name, row_count=rows)
    table.add_column(Column(name="id", distinct_values=rows, indexed=indexed))
    table.add_column(Column(name="value", dtype="float", distinct_values=100))
    return table


def test_column_rejects_unknown_dtype():
    with pytest.raises(CatalogError):
        Column(name="c", dtype="blob")


def test_column_rejects_bad_null_fraction():
    with pytest.raises(CatalogError):
        Column(name="c", null_fraction=1.5)


def test_table_duplicate_column_rejected():
    table = make_table()
    with pytest.raises(CatalogError):
        table.add_column(Column(name="id"))


def test_table_unknown_column_lookup_raises():
    table = make_table()
    with pytest.raises(CatalogError):
        table.column("missing")


def test_table_page_count_scales_with_rows():
    small = make_table("small", rows=100)
    large = make_table("large", rows=1_000_000)
    assert large.page_count > small.page_count
    assert small.page_count >= 1


def test_table_has_index():
    table = make_table()
    assert table.has_index("id")
    assert not table.has_index("value")
    assert not table.has_index("missing")


def test_catalog_add_and_lookup():
    catalog = Catalog()
    catalog.add_table(make_table("a"))
    assert catalog.table("a").name == "a"
    assert catalog.table_names() == ["a"]


def test_catalog_duplicate_table_rejected():
    catalog = Catalog()
    catalog.add_table(make_table("a"))
    with pytest.raises(CatalogError):
        catalog.add_table(make_table("a"))


def test_catalog_unknown_table_raises():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.table("missing")


def test_foreign_key_requires_existing_columns():
    catalog = Catalog()
    catalog.add_table(make_table("a"))
    catalog.add_table(make_table("b"))
    catalog.add_foreign_key("a", "value", "b", "id")
    assert len(catalog.foreign_keys()) == 1
    with pytest.raises(CatalogError):
        catalog.add_foreign_key("a", "nope", "b", "id")


def test_neighbors_reflect_foreign_keys():
    catalog = Catalog()
    for name in ("a", "b", "c"):
        catalog.add_table(make_table(name))
    catalog.add_foreign_key("a", "value", "b", "id")
    catalog.add_foreign_key("c", "value", "a", "id")
    assert set(catalog.neighbors("a")) == {"b", "c"}
    assert catalog.neighbors("b") == ["a"]


def test_build_catalog_helper():
    catalog = Catalog(name="test")
    catalog.add_table(make_table("a"))
    catalog.add_table(make_table("b"))
    catalog.add_foreign_key("a", "value", "b", "id")
    assert catalog.name == "test"
    assert len(catalog.foreign_keys()) == 1
    assert catalog.total_rows() == 2000
    assert "a" in catalog.describe()
