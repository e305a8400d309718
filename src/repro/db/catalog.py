"""Schema catalog: tables, columns, statistics, and indexes.

The catalog plays the role of PostgreSQL's ``pg_class`` / ``pg_statistic``:
it records row counts, per-column number-of-distinct-values, null fractions
and value ranges, and which columns carry indexes.  Both the cardinality
estimator and the cost model read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import CatalogError

# Approximate width in bytes per logical data type; used for page-count
# estimates in the cost model.
_TYPE_WIDTHS = {
    "int": 4,
    "bigint": 8,
    "float": 8,
    "text": 32,
    "date": 8,
    "bool": 1,
}

PAGE_SIZE_BYTES = 8192


@dataclass(frozen=True)
class Column:
    """A column with the statistics the optimizer needs."""

    name: str
    dtype: str = "int"
    distinct_values: int = 1000
    null_fraction: float = 0.0
    min_value: float = 0.0
    max_value: float = 1.0
    indexed: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in _TYPE_WIDTHS:
            raise CatalogError(
                f"unknown dtype {self.dtype!r}; expected one of {sorted(_TYPE_WIDTHS)}"
            )
        if self.distinct_values < 1:
            raise CatalogError(
                f"column {self.name!r}: distinct_values must be >= 1"
            )
        if not 0.0 <= self.null_fraction <= 1.0:
            raise CatalogError(
                f"column {self.name!r}: null_fraction must be in [0, 1]"
            )

    @property
    def width_bytes(self) -> int:
        """Storage width of a single value of this column."""
        return _TYPE_WIDTHS[self.dtype]


@dataclass
class Table:
    """A base relation with row count, columns and indexes."""

    name: str
    row_count: int
    columns: Dict[str, Column] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise CatalogError(f"table {self.name!r}: row_count must be >= 0")

    def add_column(self, column: Column) -> None:
        """Register ``column``; raises on duplicate names."""
        if column.name in self.columns:
            raise CatalogError(
                f"table {self.name!r} already has a column {column.name!r}"
            )
        self.columns[column.name] = column

    def column(self, name: str) -> Column:
        """Return the named column or raise :class:`CatalogError`."""
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_index(self, column_name: str) -> bool:
        """True when ``column_name`` exists and carries an index."""
        col = self.columns.get(column_name)
        return bool(col and col.indexed)

    @property
    def row_width_bytes(self) -> int:
        """Total width of one row (sum of column widths)."""
        return sum(c.width_bytes for c in self.columns.values()) or 4

    @property
    def page_count(self) -> int:
        """Number of heap pages the table occupies."""
        rows_per_page = max(1, PAGE_SIZE_BYTES // max(1, self.row_width_bytes))
        return max(1, -(-self.row_count // rows_per_page))

    def indexed_columns(self) -> List[str]:
        """Names of indexed columns, in insertion order."""
        return [c.name for c in self.columns.values() if c.indexed]


@dataclass
class ForeignKey:
    """A referential link used by the query generator to build join graphs."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


class Catalog:
    """A collection of tables plus foreign-key relationships."""

    def __init__(self, name: str = "catalog") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._foreign_keys: List[ForeignKey] = []

    # -- tables ---------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register ``table``; raises on duplicate names."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Return the named table or raise :class:`CatalogError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def tables(self) -> List[Table]:
        """All tables in insertion order."""
        return list(self._tables.values())

    def table_names(self) -> List[str]:
        """Names of all tables in insertion order."""
        return list(self._tables.keys())

    # -- foreign keys ---------------------------------------------------
    def add_foreign_key(
        self,
        child_table: str,
        child_column: str,
        parent_table: str,
        parent_column: str,
    ) -> None:
        """Register a foreign key; both endpoints must exist."""
        for tbl, col in ((child_table, child_column), (parent_table, parent_column)):
            self.table(tbl).column(col)
        self._foreign_keys.append(
            ForeignKey(child_table, child_column, parent_table, parent_column)
        )

    def foreign_keys(self) -> List[ForeignKey]:
        """All registered foreign keys."""
        return list(self._foreign_keys)

    def joinable_pairs(self) -> List[Tuple[str, str, str, str]]:
        """(child_table, child_column, parent_table, parent_column) tuples."""
        return [
            (fk.child_table, fk.child_column, fk.parent_table, fk.parent_column)
            for fk in self._foreign_keys
        ]

    def neighbors(self, table_name: str) -> List[str]:
        """Tables connected to ``table_name`` by a foreign key (either side)."""
        out = []
        for fk in self._foreign_keys:
            if fk.child_table == table_name:
                out.append(fk.parent_table)
            elif fk.parent_table == table_name:
                out.append(fk.child_table)
        return out

    # -- summary --------------------------------------------------------
    def total_rows(self) -> int:
        """Sum of row counts across all tables."""
        return sum(t.row_count for t in self._tables.values())

    def describe(self) -> str:
        """Human-readable multi-line summary of the catalog."""
        lines = [f"Catalog {self.name!r}: {len(self._tables)} tables"]
        for table in self._tables.values():
            lines.append(
                f"  {table.name}: {table.row_count} rows, "
                f"{len(table.columns)} columns, "
                f"indexes on {table.indexed_columns() or 'none'}"
            )
        return "\n".join(lines)
