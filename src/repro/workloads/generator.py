"""End-to-end workload construction on the DB substrate.

This is the "real deployment" path: build a catalog, sample join queries,
plan each query under each of the 49 hint sets with the simulated
optimizer, and measure latencies with the simulated execution engine.  It
is used for JOB-sized workloads, the examples, and integration tests; the
large benchmark matrices use :mod:`repro.workloads.matrices` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..db.cardinality import CardinalityEstimator
from ..db.catalog import Catalog
from ..db.cost_model import CostModel, LatencyModel, MachineProfile
from ..db.datagen import make_catalog
from ..db.executor import HintedExecutor, SimulatedExecutor
from ..db.hints import HintSet, all_hint_sets
from ..db.optimizer import PlanEnumerator
from ..db.query import Query, QueryGenerator
from ..errors import WorkloadError
from ..plans.featurize import PlanFeatureStore, PlanFeaturizer

#: Run-to-run log-normal noise of the simulated DBMS's latencies.
NOISE_SIGMA = 0.05


@dataclass
class DatabaseWorkload:
    """A workload backed by the simulated DBMS."""

    catalog: Catalog
    queries: List[Query]
    hint_sets: List[HintSet]
    enumerator: PlanEnumerator
    executor: HintedExecutor
    true_latencies: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries."""
        return len(self.queries)

    @property
    def n_hints(self) -> int:
        """Number of hint sets."""
        return len(self.hint_sets)

    @property
    def default_total(self) -> float:
        """Total latency under the default hint (column 0)."""
        return float(self.true_latencies[:, 0].sum())

    @property
    def optimal_total(self) -> float:
        """Total latency under the per-query best hint."""
        return float(self.true_latencies.min(axis=1).sum())

    @property
    def headroom(self) -> float:
        """Default / Optimal ratio."""
        return self.default_total / self.optimal_total

    def feature_store(self) -> PlanFeatureStore:
        """Real plan features for the neural method."""
        return PlanFeatureStore(
            PlanFeaturizer(self.enumerator), self.queries, self.hint_sets
        )


def build_database_workload(
    template_name: str = "toy",
    n_queries: int = 30,
    n_hints: Optional[int] = None,
    seed: int = 0,
    max_relations: int = 6,
) -> DatabaseWorkload:
    """Build a workload end-to-end on the DB substrate.

    Parameters
    ----------
    template_name:
        Schema template (``toy``, ``imdb``, ``stack``, ``dsb``).
    n_queries:
        How many queries to sample.
    n_hints:
        Optionally use only the first ``n_hints`` hint sets (keeps small
        integration tests fast); defaults to all 49.
    """
    if n_queries < 1:
        raise WorkloadError("n_queries must be >= 1")
    catalog = make_catalog(template_name, seed=seed)
    estimator = CardinalityEstimator(catalog, seed=seed)
    cost_model = CostModel(catalog)
    enumerator = PlanEnumerator(catalog, estimator, cost_model)
    latency_model = LatencyModel(
        cost_model, MachineProfile(noise_sigma=NOISE_SIGMA), seed=seed
    )
    executor = HintedExecutor(enumerator, SimulatedExecutor(latency_model))

    generator = QueryGenerator(catalog, seed=seed, max_relations=max_relations)
    queries = generator.generate_many(n_queries)

    hint_sets = all_hint_sets()
    if n_hints is not None:
        hint_sets = hint_sets[:n_hints]
    if len(hint_sets) < 2:
        raise WorkloadError("need at least two hint sets")

    latencies = np.zeros((len(queries), len(hint_sets)))
    for i, query in enumerate(queries):
        for j, hint in enumerate(hint_sets):
            result = executor.execute_with_hint(query, hint, timeout=None)
            latencies[i, j] = result.latency

    return DatabaseWorkload(
        catalog=catalog,
        queries=queries,
        hint_sets=hint_sets,
        enumerator=enumerator,
        executor=executor,
        true_latencies=latencies,
    )
