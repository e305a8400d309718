"""Workload shift, data shift, and the ETL-query experiment.

Implements the three robustness experiments of Sections 5.1, 5.3 and 5.4:

* :func:`add_etl_query` -- appends a long, write-bound query whose latency
  is essentially identical across hints (Figure 8),
* :func:`split_for_workload_shift` -- a 70/30 split of the workload with
  the remaining 30% arriving later (Figure 9),
* :data:`DRIFT_BY_AGE` / :func:`apply_data_shift` -- how many queries
  change their optimal hint as the data ages, and a shifted copy of the
  workload (Figures 10 and 11).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from .matrices import SyntheticWorkload

#: Relative spread of an ETL query's latency across hints (Figure 8).
ETL_JITTER = 0.01

#: Fraction of queries whose optimal hint changes after a data update, by the
#: data's age, in increasing order (Figure 10's calibration): negligible after
#: a day, roughly 1% after a month, 5% after six months, 10% after a year and
#: 21% after two years.
DRIFT_BY_AGE = {
    "1 day": 0.001,
    "1 week": 0.004,
    "2 weeks": 0.007,
    "1 month": 0.01,
    "3 months": 0.03,
    "6 months": 0.05,
    "1 year": 0.10,
    "2 years": 0.21,
}


def etl_latency_rows(
    n_hints: int,
    latency: float,
    jitter: float,
    rng: np.random.Generator,
    count: int = 1,
) -> np.ndarray:
    """``(count, n_hints)`` ETL-style latency rows, built in one pass.

    Every hint lands within ``±jitter`` of ``latency`` and the default
    column is pinned (marginally) fastest, so no hint can help -- the row
    shape that defeats Greedy in Section 5.1.  Shared by
    :func:`add_etl_query` and the scenario engine's ETL-flood primitive.
    """
    if latency <= 0:
        raise WorkloadError("ETL latency must be > 0")
    if not 0.0 <= jitter < 1.0:
        raise WorkloadError(f"ETL jitter must be in [0, 1), got {jitter}")
    if count < 1:
        raise WorkloadError(f"ETL row count must be >= 1, got {count}")
    rows = latency * (1.0 + rng.uniform(-jitter, jitter, size=(count, n_hints)))
    # The default plan is (marginally) the fastest: hints cannot help.
    rows[:, 0] = latency * (1.0 - jitter)
    return rows


def add_etl_query(
    workload: SyntheticWorkload,
    latency: float = 576.5,
    seed: int = 0,
) -> SyntheticWorkload:
    """Append one ETL-style query that no hint can speed up (§5.1).

    The paper adds a 576.5 s COPY-style query to the Stack workload; Greedy
    keeps re-exploring it because it is the longest-running query, while
    LimeQO's predictive model learns its row has no headroom.
    """
    rng = np.random.default_rng(seed)
    rows = etl_latency_rows(workload.n_hints, latency, ETL_JITTER, rng)
    new_latencies = np.vstack([workload.true_latencies, rows])

    etl_factors = np.full(
        (1, workload.query_factors.shape[1]),
        np.sqrt(latency / workload.query_factors.shape[1]),
    )
    new_query_factors = np.vstack([workload.query_factors, etl_factors])
    new_costs = np.vstack([workload.optimizer_costs, (rows ** 0.8) * 1e4])

    spec = replace(
        workload.spec,
        name=f"{workload.spec.name}+etl",
        n_queries=workload.n_queries + 1,
        default_total=float(new_latencies[:, 0].sum()),
        optimal_total=float(new_latencies.min(axis=1).sum()),
    )
    return SyntheticWorkload(
        spec=spec,
        true_latencies=new_latencies,
        query_factors=new_query_factors,
        hint_factors=workload.hint_factors.copy(),
        optimizer_costs=new_costs,
        seed=workload.seed,
    )


def split_for_workload_shift(
    workload: SyntheticWorkload,
    initial_fraction: float = 0.7,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Randomly split query indices into (initial, late-arriving) groups."""
    if not np.isfinite(initial_fraction) or not 0.0 < initial_fraction < 1.0:
        raise WorkloadError(
            f"initial_fraction must be a finite value in (0, 1), got "
            f"{initial_fraction}"
        )
    if workload.n_queries < 2:
        raise WorkloadError(
            f"workload shift needs at least 2 queries to split, "
            f"{workload.spec.name!r} has {workload.n_queries}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(workload.n_queries)
    cut = int(round(initial_fraction * workload.n_queries))
    if cut == 0 or cut == workload.n_queries:
        raise WorkloadError(
            f"initial_fraction={initial_fraction} rounds to an empty group "
            f"over {workload.n_queries} queries; use a fraction in "
            f"[{0.5 / workload.n_queries}, {1 - 0.5 / workload.n_queries})"
        )
    return np.sort(order[:cut]), np.sort(order[cut:])


def shift_latencies(
    latencies: np.ndarray,
    changed_fraction: float,
    growth_factor: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised core of a data shift over a raw latency matrix.

    Grows every entry by ``growth_factor``, then -- for a sampled
    ``changed_fraction`` of rows -- slows the previously optimal hint by a
    1.5-3x factor and speeds a uniformly chosen other hint below the new
    row minimum, so the argmin provably moves.  One fancy-indexed pass
    replaces the historical per-row Python loop; the per-row *distribution*
    (independent uniform draws, argmin guaranteed to change) is unchanged,
    but the bulk draws consume the generator stream in a different order,
    so a given seed produces a different -- equally valid -- shifted matrix
    than the pre-vectorisation loop did.

    Returns ``(new_latencies, changed_rows)``.  Shared by
    :func:`apply_data_shift` and the scenario engine's drift primitives.
    """
    if not 0.0 <= changed_fraction <= 1.0:
        raise WorkloadError(
            f"changed_fraction must be in [0, 1], got {changed_fraction}"
        )
    if growth_factor <= 0:
        raise WorkloadError(f"growth_factor must be > 0, got {growth_factor}")
    latencies = np.asarray(latencies, dtype=float)
    n, k = latencies.shape
    new_latencies = latencies * growth_factor

    n_changed = int(round(changed_fraction * n))
    if n_changed == 0 or k < 2:
        return new_latencies, np.zeros(0, dtype=np.int64)

    rows = rng.choice(n, size=n_changed, replace=False)
    best = new_latencies[rows].argmin(axis=1)
    # Replacement hints drawn uniformly over the k-1 non-best columns: a
    # draw in [0, k-1) shifted past the best column is the vectorised form
    # of choosing from the candidate list with ``best`` removed.
    picks = rng.integers(0, k - 1, size=n_changed)
    new_best = picks + (picks >= best)
    slow = rng.uniform(1.5, 3.0, size=n_changed)
    speed = rng.uniform(0.6, 0.9, size=n_changed)
    new_latencies[rows, best] *= slow
    targets = new_latencies[rows].min(axis=1) * speed
    new_latencies[rows, new_best] = np.maximum(targets, 1e-4)
    return new_latencies, np.asarray(rows, dtype=np.int64)


def apply_data_shift(
    workload: SyntheticWorkload,
    changed_fraction: float = 0.21,
    growth_factor: float = 1.26,
    seed: int = 0,
    spec_name: Optional[str] = None,
) -> SyntheticWorkload:
    """Produce a data-shifted copy of the workload (Section 5.4).

    Parameters
    ----------
    changed_fraction:
        Fraction of queries whose *optimal hint* changes (21% for the
        two-year Stack shift).
    growth_factor:
        Overall latency growth as the data grows (Stack's default total grew
        from 1.16 h to 1.46 h, a factor of ~1.26).
    """
    rng = np.random.default_rng(seed)
    new_latencies, _ = shift_latencies(
        workload.true_latencies, changed_fraction, growth_factor, rng
    )

    spec = replace(
        workload.spec,
        name=spec_name or f"{workload.spec.name}-shifted",
        default_total=float(new_latencies[:, 0].sum()),
        optimal_total=float(new_latencies.min(axis=1).sum()),
    )
    return SyntheticWorkload(
        spec=spec,
        true_latencies=new_latencies,
        query_factors=workload.query_factors * np.sqrt(growth_factor),
        hint_factors=workload.hint_factors * np.sqrt(growth_factor),
        optimizer_costs=workload.optimizer_costs * growth_factor,
        seed=seed,
    )


def changed_optimal_fraction(
    before: SyntheticWorkload, after: SyntheticWorkload
) -> float:
    """Fraction of queries whose optimal hint differs between two workloads."""
    if before.n_queries != after.n_queries:
        raise WorkloadError("workloads must have the same number of queries")
    return float(np.mean(before.optimal_hints() != after.optimal_hints()))
