"""A cost-based plan enumerator that honours hint sets.

The enumerator plays the role of PostgreSQL's planner: given a query and a
hint set (which operators are allowed), it picks an access path per base
relation and a join order/operator assignment minimising *estimated* cost.
For up to :data:`DP_THRESHOLD` relations it runs left-deep dynamic programming
over alias subsets (Selinger-style); larger queries fall back to a greedy
heuristic, mirroring PostgreSQL's switch to GEQO.

The returned plans are annotated with both estimated and true cardinalities
and costs, so the :class:`~repro.db.cost_model.LatencyModel` can simulate
execution without re-deriving anything.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import OptimizerError
from .cardinality import CardinalityEstimator
from .catalog import Catalog
from .cost_model import CostModel
from .hints import HintSet, default_hint_set
from .operators import PlanNode, ScanOperator
from .query import Query

#: Largest query (in relations) planned by dynamic programming; larger ones
#: are planned greedily.
DP_THRESHOLD = 9


class PlanEnumerator:
    """Hint-aware, cost-based query planner over the simulated catalog."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: Optional[CardinalityEstimator] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.catalog = catalog
        self.estimator = estimator or CardinalityEstimator(catalog)
        self.cost_model = cost_model or CostModel(catalog)

    # -- public API ------------------------------------------------------
    def optimize(self, query: Query, hint_set: Optional[HintSet] = None) -> PlanNode:
        """Return the cheapest plan for ``query`` under ``hint_set``."""
        hint_set = hint_set or default_hint_set()
        scans = {
            alias: self._best_scan(query, alias, hint_set)
            for alias in query.aliases
        }
        if query.num_relations == 1:
            plan = next(iter(scans.values()))
        elif query.num_relations <= DP_THRESHOLD:
            plan = self._dynamic_programming(query, scans, hint_set)
        else:
            plan = self._greedy(query, scans, hint_set)
        self._annotate_truth(query, plan)
        return plan

    def explain(self, query: Query) -> str:
        """EXPLAIN-style text for the default plan (convenience)."""
        return self.optimize(query).to_text()

    # -- scans -----------------------------------------------------------
    def _best_scan(self, query: Query, alias: str, hint_set: HintSet) -> PlanNode:
        table = self.catalog.table(query.table_for(alias))
        est_rows = self.estimator.estimated_base_rows(query, alias)
        selectivity = query.filter_selectivity(alias)
        candidates: List[PlanNode] = []
        allowed = hint_set.allowed_scan_operators()
        has_index = bool(table.indexed_columns())
        for op_name in allowed:
            if op_name != ScanOperator.SEQ_SCAN.value and not has_index:
                continue
            cost = self.cost_model.scan_cost(op_name, table, est_rows, selectivity)
            candidates.append(
                PlanNode(
                    operator=op_name,
                    alias=alias,
                    table=table.name,
                    estimated_rows=est_rows,
                    estimated_cost=cost,
                )
            )
        if not candidates:
            # The hint set disabled every applicable access path (e.g. only
            # index scans allowed but the table has no index).  PostgreSQL
            # falls back to a sequential scan with a huge disable_cost.
            cost = self.cost_model.scan_cost(
                ScanOperator.SEQ_SCAN.value, table, est_rows, selectivity
            )
            candidates.append(
                PlanNode(
                    operator=ScanOperator.SEQ_SCAN.value,
                    alias=alias,
                    table=table.name,
                    estimated_rows=est_rows,
                    estimated_cost=cost + 1e7,
                )
            )
        return min(candidates, key=lambda node: node.estimated_cost)

    # -- join ordering ----------------------------------------------------
    def _dynamic_programming(
        self, query: Query, scans: Dict[str, PlanNode], hint_set: HintSet
    ) -> PlanNode:
        aliases = query.aliases
        best: Dict[FrozenSet[str], Tuple[float, PlanNode]] = {}
        for alias, scan in scans.items():
            subtotal = scan.estimated_cost
            best[frozenset([alias])] = (subtotal, scan)

        full = frozenset(aliases)
        for size in range(2, len(aliases) + 1):
            for subset in self._subsets_of_size(aliases, size):
                best_entry: Optional[Tuple[float, PlanNode]] = None
                for alias in sorted(subset):
                    rest = subset - {alias}
                    if rest not in best:
                        continue
                    left_cost, left_plan = best[rest]
                    right_cost, right_plan = best[frozenset([alias])]
                    join = self._best_join(
                        query, rest, frozenset([alias]), left_plan, right_plan, hint_set
                    )
                    total = left_cost + right_cost + join.estimated_cost
                    if best_entry is None or total < best_entry[0]:
                        join_root = PlanNode(
                            operator=join.operator,
                            children=[left_plan, right_plan],
                            estimated_rows=join.estimated_rows,
                            estimated_cost=join.estimated_cost,
                        )
                        best_entry = (total, join_root)
                if best_entry is not None:
                    best[subset] = best_entry
        if full not in best:
            raise OptimizerError(
                f"query {query.name!r}: dynamic programming failed to cover all "
                "relations (disconnected join graph?)"
            )
        return best[full][1]

    def _greedy(
        self, query: Query, scans: Dict[str, PlanNode], hint_set: HintSet
    ) -> PlanNode:
        """Greedily join the pair with the cheapest next join."""
        parts: Dict[FrozenSet[str], PlanNode] = {
            frozenset([alias]): scan for alias, scan in scans.items()
        }
        while len(parts) > 1:
            best_choice = None
            keys = sorted(parts, key=lambda s: tuple(sorted(s)))
            for i, left_key in enumerate(keys):
                for right_key in keys[i + 1:]:
                    join = self._best_join(
                        query, left_key, right_key, parts[left_key], parts[right_key],
                        hint_set,
                    )
                    if best_choice is None or join.estimated_cost < best_choice[0]:
                        best_choice = (join.estimated_cost, left_key, right_key, join)
            assert best_choice is not None
            _, left_key, right_key, join = best_choice
            left_plan = parts.pop(left_key)
            right_plan = parts.pop(right_key)
            parts[frozenset(left_key | right_key)] = PlanNode(
                operator=join.operator,
                children=[left_plan, right_plan],
                estimated_rows=join.estimated_rows,
                estimated_cost=join.estimated_cost,
            )
        return next(iter(parts.values()))

    def _best_join(
        self,
        query: Query,
        left_aliases: FrozenSet[str],
        right_aliases: FrozenSet[str],
        left_plan: PlanNode,
        right_plan: PlanNode,
        hint_set: HintSet,
    ) -> PlanNode:
        est_rows = self.estimator.estimated_join_rows(query, left_aliases, right_aliases)
        has_edge = bool(query.joins_between(sorted(left_aliases), sorted(right_aliases)))
        cartesian_penalty = 1.0 if has_edge else 1e6
        best: Optional[PlanNode] = None
        for op_name in hint_set.allowed_join_operators():
            cost = self.cost_model.join_cost(
                op_name, left_plan.estimated_rows, right_plan.estimated_rows, est_rows
            ) * cartesian_penalty
            candidate = PlanNode(
                operator=op_name,
                children=[left_plan, right_plan],
                estimated_rows=est_rows,
                estimated_cost=cost,
            )
            if best is None or candidate.estimated_cost < best.estimated_cost:
                best = candidate
        if best is None:
            raise OptimizerError("hint set allows no join operators")
        return best

    @staticmethod
    def _subsets_of_size(aliases: List[str], size: int):
        from itertools import combinations

        for combo in combinations(aliases, size):
            yield frozenset(combo)

    # -- truth annotation --------------------------------------------------
    def _annotate_truth(self, query: Query, plan: PlanNode) -> None:
        """Fill ``true_rows`` / ``true_cost`` bottom-up using the true model."""
        if plan.is_scan:
            table = self.catalog.table(plan.table)
            true_rows = self.estimator.base_rows(query, plan.alias)
            selectivity = query.filter_selectivity(plan.alias)
            plan.true_rows = true_rows
            plan.true_cost = self.cost_model.scan_cost(
                plan.operator, table, true_rows, selectivity
            )
            return
        left, right = plan.children
        self._annotate_truth(query, left)
        self._annotate_truth(query, right)
        left_aliases = frozenset(left.aliases())
        right_aliases = frozenset(right.aliases())
        true_rows = self.estimator.join_rows(query, left_aliases, right_aliases)
        plan.true_rows = true_rows
        plan.true_cost = self.cost_model.join_cost(
            plan.operator, left.true_rows, right.true_rows, true_rows
        )
