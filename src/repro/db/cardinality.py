"""Cardinality estimation -- both the "truth" and the optimizer's estimate.

Two cardinality models are needed to make hint steering meaningful:

* the *true* model, used by the latency simulator, derived from catalog
  statistics plus hidden per-query correlation factors that the optimizer
  does not know about, and
* the *estimated* model, used by the plan enumerator, which applies the
  textbook independence assumptions and therefore makes multiplicative
  errors that compound with the number of joins -- exactly the behaviour
  documented for PostgreSQL on JOB (Leis et al., "How Good Are Query
  Optimizers, Really?").
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Tuple

import numpy as np

from .catalog import Catalog
from .query import Query


def stable_seed(*parts: str) -> int:
    """Derive a 32-bit seed from string parts, the same in every process
    (the builtin ``hash`` is salted for ``str`` and address-based for ``None``)."""
    digest = hashlib.sha256("::".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


class CardinalityEstimator:
    """Computes true and estimated cardinalities for plan sub-expressions.

    Parameters
    ----------
    catalog:
        Schema statistics.
    seed:
        Seed of the hidden per-subset correlation factors in the true model.
    """

    def __init__(
        self,
        catalog: Catalog,
        seed: int = 0,
    ) -> None:
        self.catalog = catalog
        self.seed = int(seed)
        self._true_cache: Dict[Tuple[str, FrozenSet[str]], float] = {}
        self._est_cache: Dict[Tuple[str, FrozenSet[str]], float] = {}

    # -- base relations --------------------------------------------------
    def base_rows(self, query: Query, alias: str) -> float:
        """True output rows of scanning ``alias`` with its filters applied."""
        table = self.catalog.table(query.table_for(alias))
        sel = query.filter_selectivity(alias)
        hidden = self._hidden_factor(query, frozenset([alias]))
        return max(1.0, table.row_count * sel * hidden)

    def estimated_base_rows(self, query: Query, alias: str) -> float:
        """The optimizer's estimate for the same scan (no hidden factor)."""
        table = self.catalog.table(query.table_for(alias))
        sel = query.filter_selectivity(alias)
        return max(1.0, table.row_count * sel)

    # -- joins ------------------------------------------------------------
    def join_rows(
        self, query: Query, left_aliases: FrozenSet[str], right_aliases: FrozenSet[str]
    ) -> float:
        """True output rows of joining two disjoint alias sets."""
        return self._rows(query, left_aliases, right_aliases, true=True)

    def estimated_join_rows(
        self, query: Query, left_aliases: FrozenSet[str], right_aliases: FrozenSet[str]
    ) -> float:
        """The optimizer's estimate for the same join."""
        return self._rows(query, left_aliases, right_aliases, true=False)

    def subset_rows(self, query: Query, aliases: FrozenSet[str], true: bool = True) -> float:
        """Rows produced by the (canonical left-deep) join of ``aliases``."""
        aliases = frozenset(aliases)
        cache = self._true_cache if true else self._est_cache
        key = (query.name, aliases)
        if key in cache:
            return cache[key]
        ordered = sorted(aliases)
        if len(ordered) == 1:
            rows = self.base_rows(query, ordered[0]) if true else (
                self.estimated_base_rows(query, ordered[0])
            )
        else:
            left = frozenset(ordered[:-1])
            right = frozenset(ordered[-1:])
            rows = self._rows(query, left, right, true=true)
        cache[key] = rows
        return rows

    # -- internals --------------------------------------------------------
    def _rows(
        self,
        query: Query,
        left_aliases: FrozenSet[str],
        right_aliases: FrozenSet[str],
        true: bool,
    ) -> float:
        left_rows = self.subset_rows(query, left_aliases, true=true)
        right_rows = self.subset_rows(query, right_aliases, true=true)
        edges = query.joins_between(sorted(left_aliases), sorted(right_aliases))
        if not edges:
            # Cartesian product (possible when a hint forces a bad order).
            return left_rows * right_rows
        selectivity = 1.0
        for edge in edges:
            selectivity *= self._edge_selectivity(query, edge)
        rows = left_rows * right_rows * selectivity
        if true:
            combined = frozenset(left_aliases | right_aliases)
            rows *= self._hidden_factor(query, combined)
        return max(1.0, rows)

    def _edge_selectivity(self, query: Query, edge) -> float:
        """Textbook equi-join selectivity: 1 / max(ndv_left, ndv_right)."""
        left_table = self.catalog.table(query.table_for(edge.left_alias))
        right_table = self.catalog.table(query.table_for(edge.right_alias))
        ndv_left = left_table.column(edge.left_column).distinct_values if (
            edge.left_column in left_table.columns
        ) else left_table.row_count
        ndv_right = right_table.column(edge.right_column).distinct_values if (
            edge.right_column in right_table.columns
        ) else right_table.row_count
        return 1.0 / max(1.0, float(max(ndv_left, ndv_right)))

    def _hidden_factor(self, query: Query, aliases: FrozenSet[str]) -> float:
        """Hidden correlation multiplier the optimizer cannot see.

        Deterministic per (query, alias subset) so repeated calls agree; the
        spread grows mildly with the subset size, which makes the optimizer's
        errors compound with the number of joins.
        """
        key = stable_seed(
            str(self.seed), query.name, ",".join(sorted(aliases)), "hidden"
        )
        rng = np.random.default_rng(key)
        sigma = 0.2 + 0.1 * len(aliases)
        return float(np.exp(rng.normal(0.0, sigma)))
