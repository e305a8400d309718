"""Join-graph queries and a reproducible query generator.

A :class:`Query` is a select-project-join block: a set of base relations
(with aliases), equi-join edges between them, and per-relation filter
predicates with a known selectivity.  The generator samples connected
subgraphs of the catalog's foreign-key graph, which is how the JOB and CEB
benchmarks were constructed on IMDb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from .catalog import Catalog


@dataclass(frozen=True)
class Predicate:
    """A filter predicate on one relation with a known selectivity."""

    alias: str
    column: str
    operator: str = "="
    selectivity: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise QueryError(
                f"predicate on {self.alias}.{self.column}: selectivity must be "
                f"in (0, 1], got {self.selectivity}"
            )

    def to_sql(self) -> str:
        """Render as a SQL-ish condition string."""
        return f"{self.alias}.{self.column} {self.operator} ?"


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join between two aliased relations."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def other(self, alias: str) -> str:
        """Return the alias on the opposite side of ``alias``."""
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise QueryError(f"alias {alias!r} is not part of this join edge")

    def to_sql(self) -> str:
        """Render as a SQL-ish join condition."""
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )


@dataclass
class Query:
    """A select-project-join query over a catalog."""

    name: str
    relations: Dict[str, str]
    joins: List[JoinEdge] = field(default_factory=list)
    predicates: List[Predicate] = field(default_factory=list)
    is_etl: bool = False

    def __post_init__(self) -> None:
        if not self.relations:
            raise QueryError(f"query {self.name!r} has no relations")
        aliases = set(self.relations)
        for edge in self.joins:
            if edge.left_alias not in aliases or edge.right_alias not in aliases:
                raise QueryError(
                    f"query {self.name!r}: join {edge.to_sql()} references an "
                    "unknown alias"
                )
        for pred in self.predicates:
            if pred.alias not in aliases:
                raise QueryError(
                    f"query {self.name!r}: predicate on unknown alias {pred.alias!r}"
                )

    # -- structure ------------------------------------------------------
    @property
    def aliases(self) -> List[str]:
        """Aliases in insertion order."""
        return list(self.relations.keys())

    @property
    def num_relations(self) -> int:
        """Number of base relations referenced."""
        return len(self.relations)

    def table_for(self, alias: str) -> str:
        """Return the base table behind ``alias``."""
        try:
            return self.relations[alias]
        except KeyError:
            raise QueryError(
                f"query {self.name!r} has no alias {alias!r}"
            ) from None

    def predicates_for(self, alias: str) -> List[Predicate]:
        """Filter predicates that apply to ``alias``."""
        return [p for p in self.predicates if p.alias == alias]

    def joins_between(self, aliases_a: Sequence[str], aliases_b: Sequence[str]) -> List[JoinEdge]:
        """Join edges with one endpoint in each alias set."""
        set_a, set_b = set(aliases_a), set(aliases_b)
        out = []
        for edge in self.joins:
            crosses_ab = edge.left_alias in set_a and edge.right_alias in set_b
            crosses_ba = edge.left_alias in set_b and edge.right_alias in set_a
            if crosses_ab or crosses_ba:
                out.append(edge)
        return out

    def filter_selectivity(self, alias: str) -> float:
        """Combined (independence-assumption) selectivity of filters on ``alias``."""
        sel = 1.0
        for pred in self.predicates_for(alias):
            sel *= pred.selectivity
        return sel

    # -- rendering ------------------------------------------------------
    def to_sql(self) -> str:
        """Render the query as a SQL-ish string (for logs and examples)."""
        from_clause = ", ".join(
            f"{table} AS {alias}" for alias, table in self.relations.items()
        )
        conditions = [e.to_sql() for e in self.joins] + [p.to_sql() for p in self.predicates]
        where = " AND ".join(conditions) if conditions else "TRUE"
        select = "COUNT(*)" if not self.is_etl else "*"
        suffix = "" if not self.is_etl else "  -- COPY TO '/tmp/out.csv'"
        return f"SELECT {select} FROM {from_clause} WHERE {where};{suffix}"

    def signature(self) -> Tuple:
        """A hashable structural signature used for caching and dedup."""
        return (
            tuple(sorted(self.relations.items())),
            tuple(sorted((e.left_alias, e.left_column, e.right_alias, e.right_column) for e in self.joins)),
            tuple(sorted((p.alias, p.column, p.operator, round(p.selectivity, 6)) for p in self.predicates)),
            self.is_etl,
        )


#: Fewest relations one generated query joins.
MIN_RELATIONS = 2
#: Most filter predicates one generated query carries.
MAX_PREDICATES = 3


class QueryGenerator:
    """Samples reproducible join-graph queries from a catalog.

    The generator walks the catalog's foreign-key graph, growing a connected
    subgraph of ``num_joins + 1`` relations, then attaches random filter
    predicates.  Mirrors how CEB extends JOB with template-sampled queries.
    """

    def __init__(
        self,
        catalog: Catalog,
        seed: int = 0,
        max_relations: int = 8,
    ) -> None:
        if max_relations < MIN_RELATIONS:
            raise QueryError(
                f"QueryGenerator needs max_relations >= {MIN_RELATIONS}, got {max_relations}"
            )
        self.catalog = catalog
        self.max_relations = max_relations
        self._rng = np.random.default_rng(seed)
        if not catalog.foreign_keys():
            raise QueryError(
                "catalog has no foreign keys; cannot generate join queries"
            )

    def generate(self, name: str) -> Query:
        """Generate one connected join query."""
        target = int(self._rng.integers(MIN_RELATIONS, self.max_relations + 1))
        tables = self._sample_connected_tables(target)
        relations = {f"t{i}": tbl for i, tbl in enumerate(tables)}
        joins = self._build_joins(relations)
        predicates = self._build_predicates(relations)
        return Query(name=name, relations=relations, joins=joins, predicates=predicates)

    def generate_many(self, count: int) -> List[Query]:
        """Generate ``count`` queries named ``q0``, ``q1``, ..."""
        return [self.generate(f"q{i}") for i in range(count)]

    # -- internals ------------------------------------------------------
    def _sample_connected_tables(self, target: int) -> List[str]:
        names = self.catalog.table_names()
        start = str(self._rng.choice(names))
        chosen = [start]
        while len(chosen) < target:
            frontier = []
            for tbl in chosen:
                frontier.extend(
                    n for n in self.catalog.neighbors(tbl) if n not in chosen
                )
            if not frontier:
                break
            chosen.append(str(self._rng.choice(sorted(set(frontier)))))
        return chosen

    def _build_joins(self, relations: Dict[str, str]) -> List[JoinEdge]:
        """One join edge per adjacent pair in the sampled spanning order."""
        alias_of = {}
        for alias, table in relations.items():
            alias_of.setdefault(table, alias)
        joins: List[JoinEdge] = []
        fk_pairs = self.catalog.joinable_pairs()
        aliases = list(relations.items())
        connected = {aliases[0][0]}
        for alias, table in aliases[1:]:
            edge = self._find_fk_edge(table, alias, relations, connected, fk_pairs)
            if edge is not None:
                joins.append(edge)
                connected.add(alias)
            else:
                # Fall back to an id = id edge with any connected relation so
                # the join graph stays connected.
                other_alias = sorted(connected)[0]
                joins.append(JoinEdge(alias, "id", other_alias, "id"))
                connected.add(alias)
        return joins

    def _find_fk_edge(self, table, alias, relations, connected, fk_pairs):
        for child_t, child_c, parent_t, parent_c in fk_pairs:
            for other_alias in connected:
                other_table = relations[other_alias]
                if child_t == table and parent_t == other_table:
                    return JoinEdge(alias, child_c, other_alias, parent_c)
                if parent_t == table and child_t == other_table:
                    return JoinEdge(alias, parent_c, other_alias, child_c)
        return None

    def _build_predicates(self, relations: Dict[str, str]) -> List[Predicate]:
        predicates: List[Predicate] = []
        num = int(self._rng.integers(0, MAX_PREDICATES + 1))
        aliases = list(relations)
        for _ in range(num):
            alias = str(self._rng.choice(aliases))
            table = self.catalog.table(relations[alias])
            columns = [c for c in table.columns if c != "id"]
            if not columns:
                continue
            column = str(self._rng.choice(columns))
            operator = str(self._rng.choice(["=", "<", ">", "<="]))
            # Log-uniform selectivity: most predicates are selective, a few
            # are not -- matches the heavy tails seen in JOB/CEB.
            selectivity = float(np.exp(self._rng.uniform(np.log(1e-4), np.log(0.5))))
            predicates.append(
                Predicate(alias=alias, column=column, operator=operator,
                          selectivity=selectivity)
            )
        return predicates
