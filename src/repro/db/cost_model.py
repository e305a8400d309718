"""Operator cost formulas and the latency model.

The :class:`CostModel` mirrors PostgreSQL's textbook cost constants
(``seq_page_cost``, ``random_page_cost``, ``cpu_tuple_cost``, ...) and is
used twice:

* with *estimated* cardinalities by the plan enumerator (what the optimizer
  believes), and
* with *true* cardinalities by the :class:`LatencyModel`, which converts
  true cost into simulated wall-clock seconds with reproducible noise.

Hints matter precisely because those two views disagree: a plan that looks
cheap under estimated cardinalities can be slow under the true ones, and a
hint that forbids the offending operator repairs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ExecutionError
from .cardinality import stable_seed
from .catalog import Catalog, Table
from .operators import JoinOperator, PlanNode, ScanOperator
from .query import Query


@dataclass(frozen=True)
class CostConstants:
    """PostgreSQL-style cost constants (defaults match postgresql.conf)."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    hash_mem_penalty: float = 1.0
    sort_mem_penalty: float = 1.0


class CostModel:
    """Per-operator cost formulas over PostgreSQL's default :class:`CostConstants`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.constants = CostConstants()

    # -- scans -----------------------------------------------------------
    def scan_cost(
        self,
        operator: str,
        table: Table,
        output_rows: float,
        selectivity: float,
    ) -> float:
        """Cost of scanning ``table`` producing ``output_rows`` rows."""
        c = self.constants
        rows = max(1.0, float(table.row_count))
        pages = max(1.0, float(table.page_count))
        output_rows = max(1.0, float(output_rows))
        if operator == ScanOperator.SEQ_SCAN.value:
            return pages * c.seq_page_cost + rows * c.cpu_tuple_cost
        if operator == ScanOperator.INDEX_SCAN.value:
            # Random heap fetches for the qualifying fraction of pages plus
            # index traversal CPU.
            fetched_pages = max(1.0, pages * min(1.0, selectivity * 2.0))
            index_cpu = output_rows * c.cpu_index_tuple_cost
            heap_cpu = output_rows * c.cpu_tuple_cost
            return fetched_pages * c.random_page_cost + index_cpu + heap_cpu + 25.0
        if operator == ScanOperator.INDEX_ONLY_SCAN.value:
            index_pages = max(1.0, pages * 0.15 * min(1.0, selectivity * 2.0))
            return (
                index_pages * c.random_page_cost
                + output_rows * c.cpu_index_tuple_cost
                + 25.0
            )
        raise ExecutionError(f"unknown scan operator {operator!r}")

    # -- joins -----------------------------------------------------------
    def join_cost(
        self,
        operator: str,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
    ) -> float:
        """Cost of joining two inputs producing ``output_rows`` rows."""
        c = self.constants
        outer = max(1.0, float(outer_rows))
        inner = max(1.0, float(inner_rows))
        out = max(1.0, float(output_rows))
        if operator == JoinOperator.HASH_JOIN.value:
            build = inner * (c.cpu_tuple_cost + c.cpu_operator_cost) * c.hash_mem_penalty
            probe = outer * (c.cpu_tuple_cost + 2.0 * c.cpu_operator_cost)
            return build + probe + out * c.cpu_tuple_cost
        if operator == JoinOperator.MERGE_JOIN.value:
            sort_cost = 0.0
            for rows in (outer, inner):
                sort_cost += (
                    rows * math.log2(rows + 2.0) * c.cpu_operator_cost * c.sort_mem_penalty
                )
            merge = (outer + inner) * c.cpu_tuple_cost
            return sort_cost + merge + out * c.cpu_tuple_cost
        if operator == JoinOperator.NESTED_LOOP.value:
            # Inner side re-scanned per outer tuple (no materialisation), so
            # this blows up when the outer cardinality is underestimated --
            # the classic JOB failure mode the hints exist to fix.
            rescan = outer * inner * c.cpu_operator_cost * 0.1
            return rescan + outer * c.cpu_tuple_cost + out * c.cpu_tuple_cost
        raise ExecutionError(f"unknown join operator {operator!r}")


@dataclass(frozen=True)
class MachineProfile:
    """Converts abstract cost units to wall-clock seconds."""

    seconds_per_cost_unit: float = 2.5e-6
    startup_seconds: float = 0.02
    noise_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.seconds_per_cost_unit <= 0:
            raise ExecutionError("seconds_per_cost_unit must be > 0")
        if self.startup_seconds < 0:
            raise ExecutionError("startup_seconds must be >= 0")
        if self.noise_sigma < 0:
            raise ExecutionError("noise_sigma must be >= 0")


class LatencyModel:
    """Maps a plan (with *true* costs) to simulated execution latency.

    Latency is deterministic for a given (seed, query, plan signature).
    ETL-style queries receive a large write-bound component that no hint can
    remove (Section 5.1's ETL experiment).
    """

    def __init__(
        self,
        cost_model: CostModel,
        profile: Optional[MachineProfile] = None,
        seed: int = 0,
    ) -> None:
        self.cost_model = cost_model
        self.profile = profile or MachineProfile()
        self.seed = int(seed)

    def true_plan_cost(self, plan: PlanNode) -> float:
        """Sum of per-node *true* costs annotated on the plan."""
        return sum(node.true_cost for node in plan.iter_nodes())

    def latency_seconds(self, query: Query, plan: PlanNode) -> float:
        """Simulated latency of executing ``plan`` for ``query``."""
        base_cost = self.true_plan_cost(plan)
        if base_cost <= 0:
            raise ExecutionError(
                "plan has no true costs annotated; run the enumerator first"
            )
        seconds = (
            self.profile.startup_seconds
            + base_cost * self.profile.seconds_per_cost_unit
        )
        if query.is_etl:
            # Write-bound tail: dominated by dumping the result to disk.
            result_rows = max(plan.true_rows, plan.estimated_rows, 1.0)
            seconds += 1e-4 * result_rows + 60.0
        noise = self._noise(query, plan)
        return float(seconds * noise)

    def _noise(self, query: Query, plan: PlanNode) -> float:
        if self.profile.noise_sigma <= 0:
            return 1.0
        # "0" is the run index the noise has always been keyed by: dropping
        # it would redraw every DB-built workload.
        key = stable_seed(str(self.seed), query.name, repr(plan.signature()), "0")
        rng = np.random.default_rng(key)
        return float(np.exp(rng.normal(0.0, self.profile.noise_sigma)))
